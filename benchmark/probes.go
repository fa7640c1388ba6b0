package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vce/internal/arch"
	"vce/internal/netsim"
	"vce/internal/obs"
	"vce/internal/scenario"
	"vce/internal/scenario/store"
	"vce/internal/sched"
	"vce/internal/sim"
	"vce/internal/taskgraph"
	"vce/internal/vtime"
)

// The probe pass times each lower layer in isolation, by direct calls
// through exported API. Its rows are workload-independent: they are the
// successors of the BENCH_sim.json ledger (BenchmarkKernel,
// BenchmarkSimHotPath, BenchmarkLoadSteps), kept in the same shapes, so a
// regression in an end-to-end number can be looked for one layer at a time.
// Every probe is sized to finish well inside two seconds.

// probeSink defeats dead-code elimination of probe loops.
var probeSink int

// perIter times n iterations of fn and returns nanoseconds per iteration.
func perIter(n int, fn func()) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(start)) / float64(n)
}

// bestOf runs a timing rounds times and keeps the fastest: scheduler noise
// only ever adds time to a CPU-bound loop.
func bestOf(rounds int, timing func() float64) float64 {
	best := timing()
	for i := 1; i < rounds; i++ {
		best = min(best, timing())
	}
	return best
}

func runProbes(dir string) (values, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	v := values{}
	probeVtime(v)
	if err := probeSim(v); err != nil {
		return nil, err
	}
	probeSched(v)
	if err := probeNetsim(v); err != nil {
		return nil, err
	}
	if err := probeSpecAndCell(v); err != nil {
		return nil, err
	}
	if err := probeStore(dir, v); err != nil {
		return nil, err
	}
	if err := probeAnalyze(dir, v); err != nil {
		return nil, err
	}
	return v, nil
}

// probeVtime mirrors BenchmarkKernel: the event queue's replace and
// cancel-and-replace steady states against a 1024-event backlog, and a 10k
// schedule-then-drain.
func probeVtime(v values) {
	fn := func() { probeSink++ }
	backlog := func() *vtime.Sim {
		s := vtime.NewSim()
		for j := 0; j < 1024; j++ {
			s.At(time.Duration(j)*time.Millisecond, fn)
		}
		return s
	}
	const steady = 500_000
	s := backlog()
	v["vtime.replace_ns"] = bestOf(3, func() float64 {
		return perIter(steady, func() {
			s.After(1500*time.Millisecond, fn)
			s.Step()
		})
	})
	s = backlog()
	v["vtime.cancel_replace_ns"] = bestOf(3, func() float64 {
		return perIter(steady, func() {
			s.Cancel(s.After(time.Hour, fn))
			s.After(1500*time.Millisecond, fn)
			s.Step()
		})
	})
	const drain = 10_000
	v["vtime.drain_ns"] = bestOf(20, func() float64 {
		return perIter(1, func() {
			s := vtime.NewSim()
			for j := 0; j < drain; j++ {
				s.At(time.Duration((j*2654435761)%100000)*time.Microsecond, fn)
			}
			s.Run()
		})
	}) / drain
}

// hotPathWorld is BenchmarkSimHotPath's world rebuilt from exported API:
// processor-sharing machines with two churning pooled task records each and
// an owner-load trace, recycled with Cluster.Reset between iterations.
type hotPathWorld struct {
	c        *sim.Cluster
	machines []*sim.Machine
	tasks    []sim.Task
	horizon  time.Duration
	steps    []sim.LoadStep
}

const hotPathSlots = 2

func newHotPathWorld(machines int, horizon time.Duration, steps []sim.LoadStep) (*hotPathWorld, error) {
	w := &hotPathWorld{c: sim.NewCluster(), horizon: horizon, steps: steps,
		machines: make([]*sim.Machine, machines), tasks: make([]sim.Task, machines*hotPathSlots)}
	for j := range w.machines {
		m, err := w.c.AddMachine(arch.Machine{Name: fmt.Sprintf("m%05d", j), Class: arch.Workstation, Speed: 1, OS: "unix"})
		if err != nil {
			return nil, err
		}
		w.machines[j] = m
		for k := 0; k < hotPathSlots; k++ {
			t := &w.tasks[j*hotPathSlots+k]
			t.ID = fmt.Sprintf("m%05d-s%d", j, k)
			t.Work = float64(40 + 20*k)
			t.OnDone = func(t *sim.Task, at time.Duration) {
				if at < horizon {
					_ = t.Reset() // a finished record always resets
					_ = m.AddTask(t)
				}
			}
		}
	}
	return w, nil
}

// iterate runs one recycled horizon and returns the events it fired.
func (w *hotPathWorld) iterate() (int64, error) {
	w.c.Reset()
	for j, m := range w.machines {
		for k := 0; k < hotPathSlots; k++ {
			t := &w.tasks[j*hotPathSlots+k]
			if err := t.Reset(); err != nil {
				return 0, err
			}
			if err := m.AddTask(t); err != nil {
				return 0, err
			}
		}
		if err := w.c.PlayLoadTrace(m.Name(), w.steps); err != nil {
			return 0, err
		}
	}
	w.c.Sim.RunUntil(w.horizon)
	return w.c.Sim.Fired(), nil
}

func probeSim(v values) error {
	minute := time.Minute
	sizes := []struct {
		key      string
		machines int
		horizon  time.Duration
		steps    []sim.LoadStep
		iters    int
	}{
		{"m1k", 1000, time.Hour, []sim.LoadStep{{At: 5 * minute, Load: 0.4}, {At: 10 * minute, Load: 0}}, 8},
		{"m10k", 10000, 15 * minute, []sim.LoadStep{{At: 5 * minute, Load: 0.4}, {At: 10 * minute, Load: 0}}, 4},
		{"m100k", 100000, 5 * minute, []sim.LoadStep{{At: 2 * minute, Load: 0.4}, {At: 4 * minute, Load: 0}}, 2},
	}
	for _, sz := range sizes {
		w, err := newHotPathWorld(sz.machines, sz.horizon, sz.steps)
		if err != nil {
			return err
		}
		if _, err := w.iterate(); err != nil { // first horizon grows the arenas
			return err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		var events int64
		start := time.Now()
		for i := 0; i < sz.iters; i++ {
			n, err := w.iterate()
			if err != nil {
				return err
			}
			events += n
		}
		took := time.Since(start)
		runtime.ReadMemStats(&ms1)
		v["sim.events_per_s."+sz.key] = float64(events) / took.Seconds()
		if sz.key == "m10k" {
			v["sim.alloc_b_per_event.m10k"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(events)
		}
	}
	runtime.GC() // give the 100k-machine world back before the next probe

	// BenchmarkLoadSteps: a load change against 16 resident tasks.
	c := sim.NewCluster()
	m, err := c.AddMachine(arch.Machine{Name: "m", Class: arch.Workstation, Speed: 1, OS: "unix"})
	if err != nil {
		return err
	}
	for i := 0; i < 16; i++ {
		if err := m.AddTask(&sim.Task{ID: fmt.Sprintf("t%d", i), Work: 1e12}); err != nil {
			return err
		}
	}
	i := 0
	v["sim.load_step_ns"] = bestOf(3, func() float64 {
		return perIter(1_000_000, func() {
			m.SetLocalLoad(float64(i%10) / 10)
			i++
		})
	})
	return nil
}

// probeSched times one placement round of 64 items over 128 machines (three
// sites) per policy, with the pooled constructors the engine uses.
func probeSched(v values) {
	const machines, items, sites = 128, 64, 3
	classes := []arch.Class{arch.Workstation, arch.MIMD, arch.Vector}
	template := make([]sched.MachineState, machines)
	names := make([]string, machines)
	ids := make([]int, machines)
	siteOf := make([]int, machines)
	for i := range template {
		names[i], ids[i], siteOf[i] = fmt.Sprintf("m%03d", i), i, i%sites
		template[i] = sched.MachineState{
			Machine: arch.Machine{Name: names[i], Class: classes[i%sites], Speed: 1 + float64(i%5), OS: "unix"},
			Load:    float64(i%4) / 4, Slots: 1 + i%2, Index: i,
		}
	}
	cost := make([][]float64, sites)
	for a := range cost {
		cost[a] = make([]float64, sites)
		for b := range cost[a] {
			if a != b {
				cost[a][b] = 5.4 // 4 MiB over the 0.75 MiB/s inter-site link
			}
		}
	}
	work := make([]sched.Item, items)
	for i := range work {
		work[i] = sched.Item{Task: taskgraph.TaskID(fmt.Sprintf("t%03d", i)), Candidates: names, CandidateIDs: ids,
			Work: float64(20 + i), HomeSite: 1 + i%sites}
	}
	locality := sched.NewLocality()
	locality.SetTopology(siteOf, cost)
	policies := []sched.Policy{sched.NewGreedyBestFit(), sched.NewUtilizationFirst(), locality}
	states := make([]sched.MachineState, machines)
	for _, p := range policies {
		v["sched.place_ns_per_item."+p.Name()] = bestOf(3, func() float64 {
			return perIter(2000, func() {
				copy(states, template) // Place consumes the slots it assigns
				placed, _ := p.Place(work, states)
				probeSink += len(placed)
			})
		}) / items
	}
}

// probeNetsim prices a 2 MiB transfer over the flat default link and through
// a site resolver like the topology model installs.
func probeNetsim(v values) error {
	link := netsim.Link{Latency: 2 * time.Millisecond, Bandwidth: 4 << 20}
	flat := netsim.New(link)
	sited := netsim.New(link)
	site := map[string]int{"ws000": 0, "mimd000": 1}
	sited.SetResolver(func(a, b string) (netsim.Link, bool) {
		if site[a] == site[b] {
			return netsim.Link{Latency: time.Millisecond, Bandwidth: 8 << 20}, true
		}
		return netsim.Link{Latency: 25 * time.Millisecond, Bandwidth: 0.75 * (1 << 20)}, true
	})
	for _, p := range []struct {
		key string
		m   *netsim.Model
	}{{"flat", flat}, {"resolver", sited}} {
		if _, err := p.m.TransferTime("ws000", "mimd000", 2<<20); err != nil {
			return err
		}
		v["netsim.transfer_ns."+p.key] = bestOf(3, func() float64 {
			return perIter(500_000, func() {
				d, _ := p.m.TransferTime("ws000", "mimd000", 2<<20) // checked once above
				probeSink += int(d)
			})
		})
	}
	return nil
}

// probeSpecAndCell times spec parsing and cell hashing on the bench-churn
// spec, then one churn cell built fresh (RunInstanceContext, no arena)
// against the same cells inside a one-worker sweep, which recycles an arena.
func probeSpecAndCell(v values) error {
	sp, raw, err := buildSpec(churnSpec(1))
	if err != nil {
		return err
	}
	// Errors inside the timed loops are kept and reported after them.
	var loopErr error
	v["spec.parse_us"] = bestOf(3, func() float64 {
		return perIter(500, func() {
			if _, err := scenario.Parse(raw); err != nil {
				loopErr = err
			}
		})
	}) / 1e3
	insts := sp.Instances()
	v["spec.cellkey_us"] = bestOf(3, func() float64 {
		return perIter(500, func() {
			key, err := scenario.CellKey(insts[0], 0)
			if err != nil {
				loopErr = err
			}
			probeSink += len(key)
		})
	}) / 1e3
	if loopErr != nil {
		return loopErr
	}

	var fresh []float64
	for run := 0; run < 2; run++ {
		for _, inst := range insts {
			start := time.Now()
			if _, err := scenario.RunInstanceContext(context.Background(), inst, run); err != nil {
				return err
			}
			fresh = append(fresh, msOf(time.Since(start)))
		}
	}
	rec := obs.New()
	two := *sp
	two.Runs = 2
	if _, err := scenario.RunContext(context.Background(), &two, scenario.Options{Workers: 1, Telemetry: rec}); err != nil {
		return err
	}
	var arena []float64
	for _, c := range rec.Snapshot().Cells {
		arena = append(arena, c.TotalMS)
	}
	v["cell.fresh_ms_p50"] = percentile(fresh, 0.5)
	if in := percentile(arena, 0.5); in > 0 {
		v["cell.arena_gain"] = v["cell.fresh_ms_p50"] / in
	}
	return nil
}

// probeStore times the filesystem store's three operations on distinct
// keys: a write, a read that hits, a read that misses.
func probeStore(dir string, v values) error {
	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	const n = 1000
	key := func(i int) string {
		sum := sha256.Sum256([]byte(fmt.Sprintf("probe-%d", i)))
		return hex.EncodeToString(sum[:])
	}
	idx := scenario.Indexes{MakespanS: 1234.5, ThroughputPerH: 678.9, Completed: 2048, UtilizationPct: 56.7}
	var put, hit, miss []time.Duration
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := st.Put(key(i), idx); err != nil {
			return err
		}
		put = append(put, time.Since(start))
	}
	for i := 0; i < n; i++ {
		start := time.Now()
		if _, ok, err := st.Get(key(i)); err != nil || !ok {
			return fmt.Errorf("store probe: entry %d missing (%v)", i, err)
		}
		hit = append(hit, time.Since(start))
		start = time.Now()
		if _, ok, err := st.Get(key(n + i)); err != nil || ok {
			return fmt.Errorf("store probe: phantom entry %d (%v)", n+i, err)
		}
		miss = append(miss, time.Since(start))
	}
	v["store.put_us_p50"] = percentile(durationsMS(put), 0.5) * 1e3
	v["store.get_hit_us_p50"] = percentile(durationsMS(hit), 0.5) * 1e3
	v["store.get_miss_us_p50"] = percentile(durationsMS(miss), 0.5) * 1e3
	return nil
}

// probeAnalyze times what `vcebench merge` does: load shard report.json
// files and merge them. The sweep is four shards of churn-small × 8 runs.
func probeAnalyze(dir string, v values) error {
	sp, _, err := buildSpec(churnSmallSpec(1, 8))
	if err != nil {
		return err
	}
	const shards = 4
	paths := make([]string, shards)
	for i := range paths {
		rep, err := scenario.RunContext(context.Background(), sp, scenario.Options{
			Workers: sweepWorkers, Shard: scenario.Shard{Index: i, Count: shards},
		})
		if err != nil {
			return err
		}
		out := filepath.Join(dir, fmt.Sprintf("shard-%d", i))
		if _, err := rep.WriteArtifacts(out); err != nil {
			return err
		}
		paths[i] = filepath.Join(out, scenario.ReportFile)
	}
	reports := make([]*scenario.Report, shards)
	var loopErr error // errors inside the timed loops, reported after them
	v["analyze.load_report_ms"] = bestOf(5, func() float64 {
		return perIter(1, func() {
			for i, p := range paths {
				if reports[i], err = scenario.LoadReport(p); err != nil {
					loopErr = err
				}
			}
		})
	}) / shards / 1e6
	if loopErr != nil {
		return loopErr
	}
	var merged *scenario.Report
	v["analyze.merge_ms"] = bestOf(5, func() float64 {
		return perIter(10, func() {
			if merged, err = scenario.MergeReports(reports...); err != nil {
				loopErr = err
			}
		})
	}) / 1e6
	if loopErr != nil {
		return loopErr
	}
	data, err := json.Marshal(merged)
	if err != nil {
		return err
	}
	probeSink += len(data)
	return nil
}
