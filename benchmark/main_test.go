package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"vce/internal/scenario"
)

// tinyScale shrinks every count-bound pass to a few ops.
const tinyScale = 0.02

// TestSmokeEveryWorkload runs each workload end to end at tiny op counts —
// setup, measured pass, traced pass, gate — so `go test ./...` keeps the
// benchmark compiling and its correctness gate exercised.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel() // the smoke checks outputs, not speed
			if testing.Short() && w.name != "sweep_warm" && w.name != "serve_mixed" {
				t.Skip("simulating workload skipped under -short")
			}
			if w.name == "stream_cell" {
				// The real op simulates 250k tasks; a tenth of that still
				// drives the queue into overload and through the same gate.
				w.setup = func(dir string, seed uint64) (runner, error) {
					return newStreamRunner(dir, seed, streamTasks/10), nil
				}
			}
			dir := t.TempDir()
			cfg := config{seed: 7, scale: tinyScale, trace: true, dir: dir, work: dir}
			res, err := runWorkload(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.EndToEnd["failed_pct"] != 0 {
				t.Fatalf("gate failed: %d of %d ops, violations %v", res.Failed, res.Attempted, res.Violations)
			}
			if res.Ops < 1 || res.TracedOps < 1 || len(res.SimDigest) != 64 {
				t.Fatalf("ops %d, traced ops %d, digest %q", res.Ops, res.TracedOps, res.SimDigest)
			}
			// At this scale the traced pass repeats the measured pass's ops on
			// a second, independent setup: equal seed must give equal bytes.
			if res.TracedOps != res.Ops || res.TracedDigest != res.SimDigest {
				t.Errorf("measured pass: %d ops, digest %s; traced pass: %d ops, digest %s — want the same",
					res.Ops, res.SimDigest, res.TracedOps, res.TracedDigest)
			}
			for _, m := range gated() {
				if v, ok := res.EndToEnd[m.Name]; !ok || !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want a positive number", m.Name, v)
				}
			}
			if v, ok := res.EndToEnd["sweep_p90_ms"]; !ok || !math.IsNaN(v) {
				t.Errorf("sweep_p90_ms = %v over %d samples, want null", v, res.Samples)
			}
			for _, m := range perLayer {
				if _, ok := res.PerLayer[m.Name]; !ok && m.Src != "P" {
					t.Errorf("per-layer metric %s missing from the traced pass", m.Name)
				}
			}
			simulates := w.name != "sweep_warm" && w.name != "serve_mixed"
			if got := res.PerLayer["cell.total_ms_p50"] > 0; got != simulates {
				t.Errorf("cell.total_ms_p50 = %v: cell rows must be positive exactly on the workloads whose sweeps simulate under a recorder", res.PerLayer["cell.total_ms_p50"])
			}
			if w.name == "sweep_warm" && (res.PerLayer["store.misses"] != 0 || res.PerLayer["store.hits"] == 0) {
				t.Errorf("sweep_warm store traffic: %v hits, %v misses", res.PerLayer["store.hits"], res.PerLayer["store.misses"])
			}
			if w.name == "serve_mixed" && !(res.PerLayer["service.recover_s"] > 0 && res.PerLayer["service.cells_simulated"] > 0) {
				t.Errorf("serve_mixed service rows: %v", res.PerLayer)
			}

			// The contract line carries exactly the metrics of its mode, each
			// as a number.
			for traced, defs := range map[bool][]metric{false: gated(), true: ledger()} {
				line := res.contractLine(traced)
				if len(line.Metrics) != len(defs) {
					t.Errorf("contract line (traced=%v) has %d metrics, want %d", traced, len(line.Metrics), len(defs))
				}
				if _, err := json.Marshal(line); err != nil {
					t.Errorf("contract line (traced=%v): %v", traced, err)
				}
			}

			var doc struct {
				Spans    []span              `json:"spans"`
				SelfTime map[string]selfTime `json:"self_time"`
			}
			data, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatal(err)
			}
			if doc.SelfTime["op"].Count != res.TracedOps {
				t.Errorf("trace holds %d op spans, the traced pass ran %d ops", doc.SelfTime["op"].Count, res.TracedOps)
			}
			for _, s := range doc.Spans {
				if s.EndNS < s.StartNS {
					t.Fatalf("span %+v ends before it starts", s)
				}
			}
		})
	}
}

// TestWarmGateCatchesCorruptEntry: an unreadable entry in the warm store
// makes the executor re-simulate that cell, which the gate must refuse even
// though the report comes out right.
func TestWarmGateCatchesCorruptEntry(t *testing.T) {
	t.Parallel()
	w, err := findWorkload("sweep_warm")
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := setUp(w, t.TempDir(), 11, tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	inst := warmSpec(11, 0).Instances()[0]
	key, err := scenario.CellKey(inst, 0)
	if err != nil {
		t.Fatal(err)
	}
	entry := filepath.Join(r.(*cliRunner).shared.Dir(), key[:2], key+".json")
	if err := os.WriteFile(entry, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := runPass(r, w.clients, limit{ops: warmPoolSize}, 0, nil)
	failed, violations := gate(r, p, "measured")
	if failed != 0 {
		t.Errorf("%d ops failed: the re-simulated report should still be byte-identical", failed)
	}
	if st := r.storeStats(); st.Misses != 1 || st.Corrupt != 1 {
		t.Errorf("store saw %d misses, %d corrupt, want 1 and 1", st.Misses, st.Corrupt)
	}
	if len(violations) == 0 {
		t.Error("gate passed a warm pass that simulated a cell")
	}
}

// TestSpecGeneration: the same seed gives byte-identical spec JSON, another
// seed gives different cell keys — for every workload's generator.
func TestSpecGeneration(t *testing.T) {
	gens := map[string]func(seed uint64, i int) *scenario.Spec{
		"sweep_cold":  func(seed uint64, i int) *scenario.Spec { return churnSpec(seed + uint64(i)) },
		"sweep_warm":  warmSpec,
		"stream_cell": func(seed uint64, i int) *scenario.Spec { return streamSpec(seed+uint64(i), streamTasks) },
		"dag_topo":    func(seed uint64, i int) *scenario.Spec { return dagSpec(seed + uint64(i)) },
		"serve_mixed": serveSpec,
	}
	for _, w := range workloads {
		gen := gens[w.name]
		if gen == nil {
			t.Fatalf("no generator listed for workload %s", w.name)
		}
		for i := 0; i < 4; i++ {
			a, rawA, err := buildSpec(gen(5, i))
			if err != nil {
				t.Fatalf("%s op %d: %v", w.name, i, err)
			}
			_, rawB, _ := buildSpec(gen(5, i))
			if !bytes.Equal(rawA, rawB) {
				t.Errorf("%s op %d: seed 5 gave two different spec documents", w.name, i)
			}
			other, _, err := buildSpec(gen(6, i))
			if err != nil {
				t.Fatal(err)
			}
			keyA, _ := scenario.CellKey(a.Instances()[0], 0)
			keyB, _ := scenario.CellKey(other.Instances()[0], 0)
			if keyA == keyB {
				t.Errorf("%s op %d: seeds 5 and 6 share cell key %s", w.name, i, keyA)
			}
		}
	}
	// The grids are what the workload table says they are.
	for name, want := range map[string]int{"sweep_cold": 24, "sweep_warm": 192, "stream_cell": 1, "dag_topo": 16} {
		if got := gridCells(gens[name](1, 0)); got != want {
			t.Errorf("%s grid has %d cells, want %d", name, got, want)
		}
	}
	if even, odd := gridCells(serveSpec(1, 2)), gridCells(serveSpec(1, 1)); even != 18 || odd != 12 {
		t.Errorf("serve_mixed grids have %d and %d cells, want 18 and 12", even, odd)
	}
	// Every third op resubmits one of hotSetSize seeds; warm-ups never do.
	if !serveHot(0) || !serveHot(9) || serveHot(10) || serveHot(warmupBase) {
		t.Error("serveHot marks the wrong ops")
	}
	if a, b := serveSpec(1, 0), serveSpec(1, 12); !reflect.DeepEqual(a, b) {
		t.Error("ops 0 and 12 of serve_mixed should resubmit the same hot spec")
	}
}

func TestP90NullBelow100Samples(t *testing.T) {
	samples := make([]float64, 99)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	data, err := json.Marshal(values{"sweep_p90_ms": p90(samples)})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != `{"sweep_p90_ms":null}` {
		t.Errorf("99 samples: got %s, want a null p90", data)
	}
	var back values
	if err := json.Unmarshal(data, &back); err != nil || !math.IsNaN(back["sweep_p90_ms"]) {
		t.Errorf("null read back as %v (%v), want NaN", back["sweep_p90_ms"], err)
	}
	samples = append(samples, 100)
	if p := p90(samples); p != 90 {
		t.Errorf("100 samples 1..100: p90 = %v, want 90", p)
	}
	if got := percentile(samples, 0.5); got != 50 {
		t.Errorf("median of 1..100 = %v, want 50 (nearest rank)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		values        []float64
		q1, med, q3   float64
		spreadOfThese float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25, 1},
		{[]float64{10, 12}, 9.5, 11, 12.5, 2.0 / 11}, // two values: their difference
		{[]float64{3, 1, 2}, 1, 2, 3, 1},
		{[]float64{102, 98, 100, 101, 99}, 98.5, 100, 101.5, 0.03},
	} {
		q1, med, q3 := quartiles(tc.values)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.values, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
		if got := spread(tc.values); math.Abs(got-tc.spreadOfThese) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.values, got, tc.spreadOfThese)
		}
	}
}

// TestSelfTime: a span's self time is its duration minus the union of its
// children, which may overlap (cells on two worker lanes).
func TestSelfTime(t *testing.T) {
	tr := newTracer()
	parent := tr.add(0, 0, "exec.execute", 0, 100, 0)
	tr.add(0, parent, "cell", 10, 60, 1)
	tr.add(0, parent, "cell", 40, 90, 2)
	got := tr.selfTimes()
	if st := got["exec.execute"]; st.Count != 1 || st.SelfMS != msOf(20) || st.TotalMS != msOf(100) {
		t.Errorf("exec.execute self time %+v, want 20 ns of 100", st)
	}
	if st := got["cell"]; st.Count != 2 || st.SelfMS != msOf(100) {
		t.Errorf("cell self time %+v, want 100 ns over 2 spans", st)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in this package the
// same list: every metric and workload named there is emitted by the
// command and the other way round. Run with UPDATE_BENCHMARK_JSON=1 to
// rewrite the file from the tables.
func TestBenchmarkJSON(t *testing.T) {
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	type jsonWorkload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []jsonWorkload `json:"workloads"`
		EndToEnd   []jsonMetric   `json:"end_to_end"`
		PerLayer   []jsonMetric   `json:"per_layer"`
	}
	want := doc{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 15}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		name(w.name)
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, over 200", w.name, len(w.why))
		}
		want.Workloads = append(want.Workloads, jsonWorkload{w.name, w.why})
	}
	for _, m := range gated() {
		name(m.Name)
		bound := m.Bound
		if bound <= 0 || bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, bound)
		}
		want.EndToEnd = append(want.EndToEnd, jsonMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range ledger() {
		name(m.Name)
		want.PerLayer = append(want.PerLayer, jsonMetric{m.Name, m.Unit, m.Better, nil})
	}
	for _, m := range perLayer {
		if m.Layer == "" || m.Src == "" || m.Moves == "" {
			t.Errorf("per-layer metric %s lacks a layer, source or moves note", m.Name)
		}
	}
	if len(endToEnd) != 7 || len(want.EndToEnd)+len(want.PerLayer) != len(endToEnd)+len(perLayer) {
		t.Errorf("%d end-to-end metrics, want the issue's 7, each listed once", len(endToEnd))
	}
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is not a contract unit", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}

	path := filepath.Join("..", "BENCHMARK.json")
	if os.Getenv("UPDATE_BENCHMARK_JSON") != "" {
		data, err := json.MarshalIndent(want, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got doc
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json and the tables in this package differ; UPDATE_BENCHMARK_JSON=1 go test ./benchmark -run TestBenchmarkJSON rewrites the file")
	}
}
