package scenario

import (
	"encoding/json"
	"path/filepath"
	"testing"
)

// FuzzSpecJSON feeds arbitrary bytes through the spec pipeline: Parse must
// either reject cleanly or yield a spec that survives withDefaults,
// re-validates, expands, and round-trips through JSON — never panic. The
// seed corpus covers the shipped specs plus structurally interesting
// near-misses.
func FuzzSpecJSON(f *testing.F) {
	f.Add([]byte(minimalJSON))
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range paths {
		sp, err := Load(p)
		if err != nil {
			f.Fatal(err)
		}
		data, err := json.Marshal(sp)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x"`))
	f.Add([]byte(`{"name":"x","machines":{"classes":[{"class":"ws","count":-1}]}}`))
	f.Add([]byte(`{"name":"x","runs":-5}`))
	f.Add([]byte(`{"name":"y","machines":{"classes":[{"class":"simd","count":1,"speed":{"dist":"pareto","alpha":1e308,"xmin":1e-308}}]},"workload":{"tasks":1,"work":{"dist":"fixed","value":1}},"policies":{"scheduling":["greedy-best-fit"],"migration":["adaptive"]}}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return // clean rejection is a correct outcome
		}
		d := sp.withDefaults()
		if err := d.Validate(); err != nil {
			t.Fatalf("withDefaults broke a spec Parse accepted: %v", err)
		}
		if got := len(sp.Instances()); got != len(d.Policies.Scheduling)*len(d.Policies.Migration) {
			t.Fatalf("Instances() expanded %d cells, want %d", got, len(d.Policies.Scheduling)*len(d.Policies.Migration))
		}
		out, err := json.Marshal(d)
		if err != nil {
			t.Fatalf("marshal of accepted spec failed: %v", err)
		}
		if _, err := Parse(out); err != nil {
			t.Fatalf("accepted spec does not round-trip: %v\njson: %s", err, out)
		}
	})
}
