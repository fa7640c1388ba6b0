package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"vce/internal/arch"
	"vce/internal/channel"
	"vce/internal/core"
	"vce/internal/exm"
	"vce/internal/isis"
	"vce/internal/metrics"
	"vce/internal/proxy"
	"vce/internal/rng"
)

// liveIsis is the protocol tuning for live experiments: fast heartbeats so
// failover completes in test time, and a short reply window, which is what
// an allocation cast waits when a member crashed without a reply (E3a).
func liveIsis() isis.Config {
	return isis.Config{
		HeartbeatEvery: 25 * time.Millisecond,
		FailAfter:      400 * time.Millisecond,
		ReplyTimeout:   250 * time.Millisecond,
	}
}

// liveVCE builds an in-memory environment with the given group populations.
func liveVCE(ws, mimd, simd int, loads func(machine string) func() float64) (*core.VCE, error) {
	v := core.New(core.Options{Isis: liveIsis(), RunTimeout: 20 * time.Second})
	add := func(m arch.Machine) error {
		cfg := core.MachineConfig{MaxTasks: 8}
		if loads != nil {
			cfg.BaseLoad = loads(m.Name)
		}
		_, err := v.AddMachine(m, cfg)
		return err
	}
	for i := 0; i < ws; i++ {
		if err := add(arch.Machine{Name: fmt.Sprintf("ws%02d", i), Class: arch.Workstation, Speed: 1, OS: "unix", MemoryMB: 64}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < mimd; i++ {
		if err := add(arch.Machine{Name: fmt.Sprintf("mimd%02d", i), Class: arch.MIMD, Speed: 10, OS: "unix", MemoryMB: 512}); err != nil {
			return nil, err
		}
	}
	for i := 0; i < simd; i++ {
		if err := add(arch.Machine{Name: fmt.Sprintf("simd%02d", i), Class: arch.SIMD, Speed: 40, OS: "cmost", MemoryMB: 1024}); err != nil {
			return nil, err
		}
	}
	// Wait for group convergence.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sizes := v.GroupSizes()
		if sizes[arch.Workstation] == ws &&
			(mimd == 0 || sizes[arch.MIMD] == mimd) &&
			(simd == 0 || sizes[arch.SIMD] == simd) {
			return v, nil
		}
		if time.Now().After(deadline) {
			v.Shutdown()
			return nil, fmt.Errorf("experiments: groups never converged: %v", sizes)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// E1Pipeline reproduces Figure 1 end to end: the §5 weather application
// travels problem specification → design → coding → compilation → bidding →
// execution, with the script's COMM/AFTER extensions exercised.
func E1Pipeline() (*Result, error) {
	v, err := liveVCE(2, 2, 1, nil)
	if err != nil {
		return nil, err
	}
	defer v.Shutdown()
	var mu sync.Mutex
	ran := map[string]int{}
	for _, p := range []string{"collector", "usercollect", "predictor", "display"} {
		p := p
		if err := v.Registry().Register("/apps/snow/"+p+".vce", func(exm.ProgContext) error {
			mu.Lock()
			ran[p]++
			mu.Unlock()
			return nil
		}); err != nil {
			return nil, err
		}
	}
	src := `ASYNC 2 "/apps/snow/collector.vce"
WORKSTATION 1 "/apps/snow/usercollect.vce"
SYNC 1 "/apps/snow/predictor.vce"
LOCAL "/apps/snow/display.vce"
COMM "/apps/snow/collector.vce" -> "/apps/snow/predictor.vce" CHANNEL obs
AFTER "/apps/snow/predictor.vce" "/apps/snow/display.vce"
HINT "/apps/snow/predictor.vce" RUNTIME 120s`
	report, err := v.RunScript("snow", src)
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E1", Title: "Fig 1: SDM→EXM pipeline (weather application, §5 script)"}
	res.Table = metrics.NewTable("E1: placements", "task", "instance", "machine", "group")
	group := func(machine string) string {
		if machine == "local" {
			return "LOCAL"
		}
		m, ok := v.DB().Get(machine)
		if !ok {
			return "?"
		}
		return m.Class.String()
	}
	// Placements arrive in dispatch-completion order; the table lists them
	// by task, instance and copy so that two runs print the same rows.
	slices.SortFunc(report.Placements, func(a, b exm.Placement) int {
		return cmp.Or(cmp.Compare(a.Task, b.Task), cmp.Compare(a.Instance, b.Instance), cmp.Compare(a.Copy, b.Copy))
	})
	for _, p := range report.Placements {
		res.Table.AddRow(string(p.Task), p.Instance, p.Machine, group(p.Machine))
		switch p.Task {
		case "collector":
			if g := group(p.Machine); g != "MIMD" {
				return nil, fmt.Errorf("E1: collector placed on %s group, want MIMD", g)
			}
		case "predictor":
			if g := group(p.Machine); g != "SIMD" {
				return nil, fmt.Errorf("E1: predictor placed on %s group, want SIMD", g)
			}
		case "display":
			if p.Machine != "local" {
				return nil, fmt.Errorf("E1: display placed on %s, want local", p.Machine)
			}
		}
	}
	if len(report.Placements) != 5 {
		return nil, fmt.Errorf("E1: %d placements, want 5", len(report.Placements))
	}
	if report.Waves != 2 {
		return nil, fmt.Errorf("E1: %d waves, want 2 (AFTER arc)", report.Waves)
	}
	compiles, _ := v.Compiler().Stats()
	res.note("5 instances placed across %d machines in %d waves; %d binaries prepared ahead of run",
		len(report.MachinesUsed()), report.Waves, compiles)
	return res, nil
}

// E2Proxy reproduces Figure 2: client/server proxies marshalling calls into
// architecture-independent form over a VCE channel, with overhead measured
// against a direct in-process call.
func E2Proxy() (*Result, error) {
	hub := channel.NewHub()
	ch := hub.Channel("rpc")
	sp, err := ch.CreatePort("server")
	if err != nil {
		return nil, err
	}
	cp, err := ch.CreatePort("client")
	if err != nil {
		return nil, err
	}
	echo := func(args []interface{}) ([]interface{}, error) { return args, nil }
	srv := proxy.NewServer(sp)
	srv.Register("echo", echo)
	go srv.Serve()
	cli := proxy.NewClient(cp, "server")
	defer hub.Destroy("rpc")

	res := &Result{ID: "E2", Title: "Fig 2: proxy method invocation (architecture-independent marshalling)"}
	res.Table = metrics.NewTable("E2: call costs by argument size",
		"argBytes", "proxy µs/call", "direct ns/call", "wire bytes/call")
	const calls = 200
	var lastOverhead float64
	for _, size := range []int{64, 1024, 16 * 1024, 64 * 1024} {
		arg := make([]byte, size)
		// Proxy path.
		start := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := cli.Call("echo", arg); err != nil {
				return nil, fmt.Errorf("E2: call failed: %w", err)
			}
		}
		proxyPer := time.Since(start) / calls
		// Direct path.
		start = time.Now()
		for i := 0; i < calls; i++ {
			if _, err := echo([]interface{}{arg}); err != nil {
				return nil, err
			}
		}
		directPer := time.Since(start) / calls
		out, in := cli.Traffic()
		res.Table.AddRow(size, float64(proxyPer.Microseconds()), float64(directPer.Nanoseconds()), (out+in)/int64(calls))
		lastOverhead = float64(proxyPer) / float64(directPer+1)
		if proxyPer <= directPer {
			return nil, fmt.Errorf("E2: proxy call (%v) not slower than direct (%v)?", proxyPer, directPer)
		}
	}
	total, failed := srv.Calls()
	if failed != 0 {
		return nil, fmt.Errorf("E2: %d/%d calls failed", failed, total)
	}
	res.note("marshalling keeps every call correct across %d invocations; proxy overhead at 64 KiB ≈ %.0fx a direct call — the §4.2 price of location transparency", total, lastOverhead)
	return res, nil
}

// E3Bidding reproduces Figure 3: allocation latency and bid counts as the
// workstation group grows, verifying the leader selects the least-loaded
// bidder.
func E3Bidding() (*Result, error) {
	res := &Result{ID: "E3", Title: "Fig 3: runtime bidding mechanism"}
	res.Table = metrics.NewTable("E3: bidding by group size",
		"group size", "alloc ms", "instances placed", "least-loaded selected")
	r := rng.New(seed).Derive("e3")
	for _, n := range []int{2, 4, 8, 16, 32} {
		loads := make(map[string]float64, n)
		var mu sync.Mutex
		v, err := liveVCE(n, 0, 0, func(machine string) func() float64 {
			return func() float64 {
				mu.Lock()
				defer mu.Unlock()
				return loads[machine]
			}
		})
		if err != nil {
			return nil, err
		}
		// Assign distinct random loads; machine with minimum load is the
		// expected winner.
		minMachine, minLoad := "", 99.0
		mu.Lock()
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("ws%02d", i)
			l := r.Range(0.1, 1.9)
			loads[name] = l
			if l < minLoad {
				minLoad, minMachine = l, name
			}
		}
		mu.Unlock()
		if err := v.Registry().Register("/apps/probe.vce", func(exm.ProgContext) error { return nil }); err != nil {
			v.Shutdown()
			return nil, err
		}
		start := time.Now()
		report, err := v.RunScript("probe", `WORKSTATION 1 "/apps/probe.vce"`)
		elapsed := time.Since(start)
		if err != nil {
			v.Shutdown()
			return nil, fmt.Errorf("E3 n=%d: %w", n, err)
		}
		selected := report.Placements[0].Machine
		ok := selected == minMachine
		res.Table.AddRow(n, float64(elapsed.Milliseconds()), len(report.Placements), ok)
		if !ok {
			v.Shutdown()
			return nil, fmt.Errorf("E3 n=%d: selected %s (load %.2f), want least-loaded %s (%.2f)",
				n, selected, loads[selected], minMachine, minLoad)
		}
		v.Shutdown()
	}
	res.note("the group leader sorts bids by load and the least-loaded machine wins at every group size (prototype §5 behaviour)")
	return res, nil
}

// E3aCrashedBidder is the reply-collection ablation: with a just-crashed
// member still in the view, AllReplies collection runs to the reply timeout;
// once the failure detector trims the view, latency recovers.
func E3aCrashedBidder() (*Result, error) {
	v, err := liveVCE(6, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	defer v.Shutdown()
	if err := v.Registry().Register("/apps/p.vce", func(exm.ProgContext) error { return nil }); err != nil {
		return nil, err
	}
	alloc := func() (time.Duration, error) {
		start := time.Now()
		_, err := v.RunScript("probe", `WORKSTATION 1 "/apps/p.vce"`)
		return time.Since(start), err
	}
	healthy, err := alloc()
	if err != nil {
		return nil, err
	}
	// Crash a non-leader, non-contact member and allocate immediately:
	// the leader still expects its bid and must wait out the reply window.
	if err := v.StopMachine("ws05"); err != nil {
		return nil, err
	}
	degraded, err := alloc()
	if err != nil {
		return nil, err
	}
	// Wait for the failure detector to eject the corpse, then re-measure.
	time.Sleep(1200 * time.Millisecond)
	recovered, err := alloc()
	if err != nil {
		return nil, err
	}
	res := &Result{ID: "E3a", Title: "Ablation: reply collection with a crashed bidder"}
	res.Table = metrics.NewTable("E3a: allocation latency", "scenario", "alloc ms")
	res.Table.AddRow("healthy group", float64(healthy.Milliseconds()))
	res.Table.AddRow("crashed member in view", float64(degraded.Milliseconds()))
	res.Table.AddRow("after failure detection", float64(recovered.Milliseconds()))
	if degraded < healthy {
		return nil, fmt.Errorf("E3a: degraded alloc (%v) faster than healthy (%v)?", degraded, healthy)
	}
	if recovered >= degraded {
		return nil, fmt.Errorf("E3a: recovery (%v) no faster than degraded (%v)", recovered, degraded)
	}
	res.note("a dead member in the view stretches reply collection to the timeout (%.0fms); view trimming restores latency (%.0fms)",
		float64(degraded.Milliseconds()), float64(recovered.Milliseconds()))
	return res, nil
}

// E4Failover reproduces §5's fault-tolerance rule: when the group leader
// dies, the oldest surviving member takes over and the group keeps serving
// allocations.
func E4Failover() (*Result, error) {
	res := &Result{ID: "E4", Title: "§5: oldest surviving member assumes leadership"}
	res.Table = metrics.NewTable("E4: failover by group size",
		"members", "failover ms", "new leader is oldest survivor", "post-failover alloc ok")
	for _, n := range []int{4, 8, 16} {
		v, err := liveVCE(n, 0, 0, nil)
		if err != nil {
			return nil, err
		}
		if err := v.Registry().Register("/apps/p.vce", func(exm.ProgContext) error { return nil }); err != nil {
			v.Shutdown()
			return nil, err
		}
		start := time.Now()
		if err := v.StopMachine("ws00"); err != nil {
			v.Shutdown()
			return nil, err
		}
		// Wait for ws01 (next oldest) to take over.
		var failover time.Duration
		deadline := time.Now().Add(10 * time.Second)
		for {
			if d, ok := v.Daemon("ws01"); ok && d.IsLeader() {
				failover = time.Since(start)
				break
			}
			if time.Now().After(deadline) {
				v.Shutdown()
				return nil, fmt.Errorf("E4 n=%d: failover never completed", n)
			}
			time.Sleep(2 * time.Millisecond)
		}
		// No younger member may claim leadership.
		for i := 2; i < n; i++ {
			if d, ok := v.Daemon(fmt.Sprintf("ws%02d", i)); ok && d.IsLeader() {
				v.Shutdown()
				return nil, fmt.Errorf("E4 n=%d: ws%02d claims leadership over the oldest survivor", n, i)
			}
		}
		_, err = v.RunScript("post", `WORKSTATION 1 "/apps/p.vce"`)
		allocOK := err == nil
		res.Table.AddRow(n, float64(failover.Milliseconds()), true, allocOK)
		v.Shutdown()
		if !allocOK {
			return nil, fmt.Errorf("E4 n=%d: post-failover allocation failed: %v", n, err)
		}
	}
	res.note("failover completes within the failure-detection window at every size; requests submitted afterwards allocate normally")
	return res, nil
}

// E12Concurrency reproduces the §5 note that Isis threads let several
// execution programs have requests outstanding simultaneously.
func E12Concurrency() (*Result, error) {
	v, err := liveVCE(8, 0, 0, nil)
	if err != nil {
		return nil, err
	}
	defer v.Shutdown()
	const workPerApp = 20 * time.Millisecond
	if err := v.Registry().Register("/apps/c.vce", func(exm.ProgContext) error {
		time.Sleep(workPerApp)
		return nil
	}); err != nil {
		return nil, err
	}
	res := &Result{ID: "E12", Title: "§5: concurrent execution programs (Isis threads)"}
	res.Table = metrics.NewTable("E12: throughput vs concurrent submitters",
		"submitters", "total ms", "apps/sec")
	var serial, best float64
	for _, k := range []int{1, 2, 4, 8} {
		start := time.Now()
		var wg sync.WaitGroup
		errCh := make(chan error, k)
		for i := 0; i < k; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if _, err := v.RunScript(fmt.Sprintf("app%d", i), `WORKSTATION 2 "/apps/c.vce"`); err != nil {
					errCh <- err
				}
			}(i)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return nil, fmt.Errorf("E12 k=%d: %w", k, err)
		}
		total := time.Since(start)
		rate := float64(k) / total.Seconds()
		res.Table.AddRow(k, float64(total.Milliseconds()), rate)
		if k == 1 {
			serial = rate
		}
		if rate > best {
			best = rate
		}
	}
	if best <= serial {
		return nil, fmt.Errorf("E12: concurrency gained nothing (serial %.1f/s, best %.1f/s)", serial, best)
	}
	res.note("per-request threads let concurrent submitters overlap: throughput rises from %.1f to %.1f apps/sec", serial, best)
	return res, nil
}
