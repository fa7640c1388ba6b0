package specgen

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vce/internal/arch"
	"vce/internal/scenario"
)

// fuzzCaps keep each generated-spec iteration in the low milliseconds.
var fuzzCaps = Caps{MaxMachines: 4, MaxTasks: 8, MaxRuns: 1, MaxHorizonS: 300, MaxCells: 2}

// addJSONDir seeds the fuzz corpus from every .json file in dir.
func addJSONDir(f *testing.F, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatalf("reading corpus dir %s: %v", dir, err)
	}
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
}

func clampF(v, lo, hi float64) float64 {
	if v != v || v < lo { // NaN and underflow both land on the floor
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// tameDist clamps a distribution's parameters into ranges a bounded-horizon
// run can express, preserving the kind.
func tameDist(d scenario.Dist) scenario.Dist {
	switch d.Kind {
	case "fixed":
		d.Value = clampF(d.Value, 0.01, 1e4)
	case "uniform":
		d.Min = clampF(d.Min, 0.01, 1e4)
		d.Max = clampF(d.Max, d.Min, 1e4)
	case "pareto":
		d.Alpha = clampF(d.Alpha, 1.1, 8)
		d.Xmin = clampF(d.Xmin, 0.01, 1e3)
	case "normal":
		d.Mean = clampF(d.Mean, 0.01, 1e4)
		d.Stddev = clampF(d.Stddev, 0, 1e4)
	}
	return d
}

// tame scales an arbitrary parsed spec down to a fuzz-runnable one: tiny
// grid, bounded horizon, and every rate/size parameter clamped into ranges
// where event generation terminates and one iteration stays in the low
// milliseconds (the nightly lane's 2-minute budget buys thousands of
// mutations only if each one is cheap). The taming is deterministic, so the
// determinism property still applies to the tamed spec.
func tame(sp *scenario.Spec) *scenario.Spec {
	out := *sp
	out.Runs = 1
	// Horizon 0 means "default" (3600s) to the engine — substitute the cap,
	// don't let it escape through the clamp's zero floor.
	if out.HorizonS == 0 {
		out.HorizonS = 120
	}
	out.HorizonS = clampF(out.HorizonS, 1, 120)
	out.Policies = scenario.PolicyMatrix{
		Scheduling: out.Policies.Scheduling[:1],
		Migration:  out.Policies.Migration[:1],
	}
	classes := out.Machines.Classes
	if len(classes) > 2 {
		classes = classes[:2]
	}
	out.Machines.Classes = make([]scenario.MachineClassSpec, len(classes))
	for i, cl := range classes {
		if cl.Count > 2 {
			cl.Count = 2
		}
		if cl.Slots > 4 {
			cl.Slots = 4
		}
		cl.Speed = tameDist(cl.Speed)
		out.Machines.Classes[i] = cl
	}
	// Bandwidth and image bounds keep a single migration's virtual cost at
	// ≥ ~8ms: an unbounded ratio lets a migration storm pack tens of
	// millions of events into the horizon — technically finite, effectively
	// a fuzz hang.
	bw := 1.0
	if out.Machines.BandwidthMiBps != nil {
		bw = *out.Machines.BandwidthMiBps
	}
	out.Machines.BandwidthMiBps = scenario.Float64(clampF(bw, 0.1, 64))
	out.Machines.LatencyMs = clampF(out.Machines.LatencyMs, 0, 1e3)
	if out.Workload.Tasks > 6 {
		out.Workload.Tasks = 6
	}
	out.Workload.Work = tameDist(out.Workload.Work)
	out.Workload.ImageMiB = clampF(out.Workload.ImageMiB, 0.5, 64)
	if out.Workload.Arrivals.Kind == "poisson" {
		out.Workload.Arrivals.RatePerS = clampF(out.Workload.Arrivals.RatePerS, 1e-4, 1e4)
	}
	// Dropping machine classes may orphan the constrained-task pin; a spec
	// that was valid before taming must stay valid after. Class identity
	// ("workstation" vs "ws") is decided by the parser validation uses.
	if con := out.Workload.Constrained; con != nil {
		pin, _ := arch.ParseClass(con.Class)
		present := false
		for _, cl := range out.Machines.Classes {
			if c, _ := arch.ParseClass(cl.Class); c == pin {
				present = true
				break
			}
		}
		if !present {
			out.Workload.Constrained = nil
		}
	}
	if out.Owner != nil {
		o := *out.Owner
		o.MeanIdleS = clampF(o.MeanIdleS, 5, 1e4)
		o.MeanBusyS = clampF(o.MeanBusyS, 5, 1e4)
		o.BusyLoad = clampF(o.BusyLoad, 0, 100)
		out.Owner = &o
	}
	if out.Faults != nil {
		ft := *out.Faults
		ft.MTBFHours = clampF(ft.MTBFHours, 0.01, 1e4)
		ft.DownS = clampF(ft.DownS, 1, 1e4)
		out.Faults = &ft
	}
	out.CheckpointIntervalS = clampF(out.CheckpointIntervalS, 0, 1e4)
	if out.CheckpointIntervalS > 0 && out.CheckpointIntervalS < 5 {
		out.CheckpointIntervalS = 5
	}
	return &out
}

// TestTamePreservesValidity pins the taming contract on the cases that have
// bitten: a constrained class living in a truncated machine class, and an
// absent horizon that must not escape to the engine default.
func TestTamePreservesValidity(t *testing.T) {
	sp, err := scenario.Parse([]byte(`{
		"name": "tame-edge",
		"machines": {"classes": [
			{"class": "workstation", "count": 1, "speed": {"dist": "fixed", "value": 1}},
			{"class": "mimd", "count": 1, "speed": {"dist": "fixed", "value": 1}},
			{"class": "simd", "count": 1, "speed": {"dist": "fixed", "value": 1}},
			{"class": "vector", "count": 1, "speed": {"dist": "fixed", "value": 1}}
		]},
		"workload": {"tasks": 4, "work": {"dist": "fixed", "value": 10},
			"constrained": {"fraction": 0.5, "class": "vector"}},
		"policies": {"scheduling": ["greedy-best-fit"], "migration": ["none"]}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	tamed := tame(sp)
	if err := tamed.Validate(); err != nil {
		t.Fatalf("taming broke a valid spec: %v", err)
	}
	if tamed.Workload.Constrained != nil {
		t.Error("constrained pin to a dropped class survived taming")
	}
	if tamed.HorizonS == 0 || tamed.HorizonS > 120 {
		t.Errorf("tamed horizon %v escapes the fuzz budget", tamed.HorizonS)
	}
}

// FuzzGeneratedSpec is the engine-wide fuzz lane: JSON inputs that parse as
// specs are tamed and actually executed — twice, at different worker counts
// — and the two reports must agree byte-for-byte; inputs that don't parse
// are folded into a generator seed so every mutation still exercises a
// valid randomized scenario end to end. Seeded from examples/scenarios/ and
// the committed specgen corpus.
func FuzzGeneratedSpec(f *testing.F) {
	addJSONDir(f, filepath.Join("..", "..", "..", "examples", "scenarios"))
	addJSONDir(f, filepath.Join("testdata", "corpus"))
	f.Add([]byte("seed:42"))
	f.Add([]byte{0xde, 0xad, 0xbe, 0xef})

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := scenario.Parse(data)
		if err != nil {
			// Not a spec: treat the bytes as generator entropy instead.
			seed := uint64(1469598103934665603) // FNV-1a offset basis
			for _, b := range data {
				seed = (seed ^ uint64(b)) * 1099511628211
			}
			sp = Generate(seed, fuzzCaps)
			roundtrip, err := MarshalCanonical(sp)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scenario.Parse(roundtrip); err != nil {
				t.Fatalf("generated spec does not re-parse: %v", err)
			}
		} else {
			sp = tame(sp)
			if err := sp.Validate(); err != nil {
				// Taming can push a pathological-but-valid spec outside the
				// schema only via clamping bugs; surface them.
				t.Fatalf("tamed spec no longer validates: %v", err)
			}
		}
		run := func(workers int) ([]byte, error) {
			rep, err := scenario.RunContext(context.Background(), sp, scenario.Options{Workers: workers})
			if err != nil {
				return nil, err
			}
			return json.Marshal(rep)
		}
		a, errA := run(1)
		b, errB := run(2)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("run outcome depends on worker count: %v vs %v", errA, errB)
		}
		if errA == nil && string(a) != string(b) {
			t.Fatalf("report depends on worker count:\n%s\n---\n%s", a, b)
		}
	})
}
