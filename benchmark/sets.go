package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// runSets is the benchmark without -workload: cfg.repeat full sets, each
// running every workload in its own child process (so memory, allocation and
// GC numbers belong to one workload), workloads interleaved round-robin
// across sets so a slow spell of the host cannot land on one workload's
// every sample; then the probe pass, once. With more than one set it prints
// each metric's spread against its bound.
func runSets(cfg config) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cpu0 := readCPUTimes()
	all := make(map[string][]*result) // workload → one result per set
	correct := true
	for set := 0; set < cfg.repeat; set++ {
		for _, w := range workloads {
			dir := filepath.Join(cfg.dir, fmt.Sprintf("set%d", set))
			resultFile := filepath.Join(dir, "result-"+w.name+".json")
			cmd := exec.Command(self,
				"-workload", w.name,
				"-seed", strconv.FormatUint(cfg.seed, 10),
				"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
				"-trace", "1", "-probes=false",
				"-dir", dir, "-result", resultFile)
			cmd.Stderr = os.Stderr
			// The child's stdout repeats what the result file holds.
			runErr := cmd.Run()
			data, err := os.ReadFile(resultFile)
			if err != nil {
				return fmt.Errorf("%s: no result (%v): %w", w.name, runErr, err)
			}
			var res result
			if err := json.Unmarshal(data, &res); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			if cfg.repeat > 1 {
				fmt.Printf("-- set %d of %d\n", set+1, cfg.repeat)
			}
			printResult(os.Stdout, &res)
			correct = correct && res.Correct
			all[w.name] = append(all[w.name], &res)
		}
	}

	probes, err := runProbes(filepath.Join(cfg.work, "probes"))
	if err != nil {
		return err
	}
	fmt.Println("== probe pass  (direct calls into one layer each; workload-independent)")
	for _, m := range perLayer {
		if val, ok := probes[m.Name]; ok {
			fmt.Printf("   %-44s %14.6g %s  [%s]\n", m.Name, val, m.Unit, m.Src)
		}
	}
	for _, w := range workloads { // the budget ratios need a probe row each
		last := all[w.name][len(all[w.name])-1]
		for k, v := range probes {
			last.PerLayer[k] = v
		}
		fmt.Printf("   %s:\n", w.name)
		printRatios(os.Stdout, last)
	}
	host := newHostInfo(cfg.dir, cpu0)
	fmt.Printf("   host over the whole invocation: steal %.2f %%, load %.2f\n", host.StealPct, host.LoadAvg1)

	if cfg.repeat > 1 {
		printSpread(all)
	}
	if !correct {
		return errIncorrect
	}
	return nil
}

// printSpread prints, per end-to-end metric × workload, the median and
// quartiles over the sets, the interquartile spread as a share of the median,
// and whether that spread stays inside the metric's regression bound — a
// metric that does not repeat within its bound cannot resolve a regression
// of that size. It also says whether the exact counters repeated exactly.
func printSpread(all map[string][]*result) {
	fmt.Println("== spread over sets  (q1 / median / q3, spread = (q3-q1)/median; of two sets: min / mean / max)")
	for _, w := range workloads {
		sets := all[w.name]
		noisy := 0
		for _, r := range sets {
			if r.Host.Noisy {
				noisy++
			}
		}
		fmt.Printf("   %s  (%d sets, %d noisy)\n", w.name, len(sets), noisy)
		for _, m := range endToEnd {
			var vals []float64
			for _, r := range sets {
				if v := r.EndToEnd[m.Name]; !math.IsNaN(v) {
					vals = append(vals, v)
				}
			}
			if len(vals) < 2 {
				fmt.Printf("     %-16s null: fewer than %d samples a pass\n", m.Name, p90MinSamples)
				continue
			}
			q1, med, q3, sp := summarize(vals)
			verdict := "pass"
			if sp > m.Bound || (m.Bound == 0 && q3 > 0) {
				verdict = "FAIL"
			}
			fmt.Printf("     %-16s %12.6g / %12.6g / %12.6g %-8s spread %6.2f %%  bound %4.0f %%  %s\n",
				m.Name, q1, med, q3, m.Unit, 100*sp, 100*m.Bound, verdict)
		}
		exact := true
		for _, r := range sets[1:] {
			if r.SimDigest != sets[0].SimDigest || r.Ops != sets[0].Ops {
				exact = false
			}
			for _, m := range perLayer {
				if m.Src == "C" && m.Layer != "process" && r.PerLayer[m.Name] != sets[0].PerLayer[m.Name] {
					exact = false
				}
			}
		}
		var alloc []float64
		for _, r := range sets {
			alloc = append(alloc, r.PerLayer["process.alloc_mib"])
		}
		fmt.Printf("     sim_digest and exact counters identical across sets: %v;  process.alloc_mib spread %.3f %%\n",
			exact, 100*spread(alloc))
	}
}
