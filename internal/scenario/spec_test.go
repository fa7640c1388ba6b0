package scenario

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// minimalJSON is a small valid spec used as the mutation base.
const minimalJSON = `{
  "name": "mini",
  "horizon_s": 600,
  "machines": {"classes": [{"class": "workstation", "count": 2, "speed": {"dist": "fixed", "value": 1}}]},
  "workload": {"tasks": 4, "work": {"dist": "uniform", "min": 10, "max": 20}, "arrivals": {"kind": "batch"}},
  "policies": {"scheduling": ["greedy-best-fit"], "migration": ["none"]},
  "runs": 2,
  "seed": 7
}`

func TestParseValidSpec(t *testing.T) {
	sp, err := Parse([]byte(minimalJSON))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sp.Name != "mini" || sp.Workload.Tasks != 4 {
		t.Errorf("parsed spec = %+v", sp)
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		name, mutate, wantErr string
	}{
		{"unknown sched policy", `"greedy-best-fit"`, "unknown scheduling policy"},
		{"unknown migration", `"none"`, "unknown migration strategy"},
		{"unknown dist", `{"dist": "fixed", "value": 1}`, "unknown dist kind"},
		{"bad uniform range", `{"dist": "uniform", "min": 10, "max": 20}`, "uniform dist needs"},
		{"unknown class", `"workstation"`, "unknown class"},
		// A horizon past time.Duration's range, and a checkpoint tick the
		// clock cannot advance past (1e-10 s rounds to 0 ns).
		{"horizon overflows the clock", `"horizon_s": 600`, "horizon_s"},
		{"checkpoint interval below the clock floor", `"seed": 7`, "checkpoint_interval_s"},
		{"too many checkpoint instants", `"seed": 7`, "checkpoint_interval_s"},
	}
	replacements := []string{
		`"round-robin"`,
		`"teleport"`,
		`{"dist": "zipf", "value": 1}`,
		`{"dist": "uniform", "min": 30, "max": 20}`,
		`"quantum"`,
		`"horizon_s": 1e12`,
		`"seed": 7, "checkpoint_interval_s": 1e-10`,
		`"seed": 7, "checkpoint_interval_s": 0.005`,
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := strings.Replace(minimalJSON, tc.mutate, replacements[i], 1)
			if bad == minimalJSON {
				t.Fatalf("mutation %q did not apply", tc.mutate)
			}
			if _, err := Parse([]byte(bad)); err == nil {
				t.Fatalf("Parse accepted bad spec (wanted error containing %q)", tc.wantErr)
			} else if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	bad := strings.Replace(minimalJSON, `"runs": 2`, `"rnus": 2`, 1)
	if _, err := Parse([]byte(bad)); err == nil {
		t.Fatal("Parse accepted a spec with an unknown field")
	}
}

func TestValidateConstrainedClassMustExist(t *testing.T) {
	sp, err := Parse([]byte(minimalJSON))
	if err != nil {
		t.Fatal(err)
	}
	sp.Workload.Constrained = &ConstrainedSpec{Fraction: 0.5, Class: "simd"}
	if err := sp.Validate(); err == nil {
		t.Fatal("Validate accepted a constrained class with no machines")
	} else if !strings.Contains(err.Error(), "no machines") {
		t.Errorf("error = %v", err)
	}
	sp.Workload.Constrained = &ConstrainedSpec{Fraction: 1.5, Class: "workstation"}
	if err := sp.Validate(); err == nil {
		t.Fatal("Validate accepted fraction > 1")
	}
}

func TestBuiltinsValidate(t *testing.T) {
	names := BuiltinNames()
	if len(names) < 3 {
		t.Fatalf("want >= 3 built-in scenarios, got %v", names)
	}
	for _, n := range names {
		sp, err := Builtin(n)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", n, err)
		}
		if err := sp.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", n, err)
		}
		if sp.Name != n {
			t.Errorf("builtin %q has name %q", n, sp.Name)
		}
	}
	if _, err := Builtin("no-such"); err == nil {
		t.Error("Builtin accepted an unknown name")
	}
}

func TestExampleSpecFilesParse(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenario files found (err=%v)", err)
	}
	for _, p := range paths {
		if _, err := Load(p); err != nil {
			t.Errorf("example %s does not parse: %v", p, err)
		}
	}
}

// TestExamplesMatchBuiltins pins the shipped JSON files to the built-in
// specs they document: `vcebench -name X` and `-spec examples/scenarios/
// X.json` must be the same scenario. Regenerate a drifted file with
// `go run ./cmd/vcebench -name X -dump > examples/scenarios/X.json`.
func TestExamplesMatchBuiltins(t *testing.T) {
	for _, name := range BuiltinNames() {
		builtin, err := Builtin(name)
		if err != nil {
			t.Fatal(err)
		}
		fromFile, err := Load(filepath.Join("../../examples/scenarios", name+".json"))
		if err != nil {
			t.Fatalf("builtin %q has no matching example file: %v", name, err)
		}
		if !reflect.DeepEqual(builtin, fromFile) {
			t.Errorf("example %s.json drifted from the builtin:\nbuiltin: %+v\nfile:    %+v", name, builtin, fromFile)
		}
	}
}

func TestInstancesCrossProduct(t *testing.T) {
	sp, err := Parse([]byte(minimalJSON))
	if err != nil {
		t.Fatal(err)
	}
	sp.Policies.Scheduling = []string{"greedy-best-fit", "utilization-first"}
	sp.Policies.Migration = []string{"none", "suspend", "address-space"}
	insts := sp.Instances()
	if len(insts) != 6 {
		t.Fatalf("got %d instances, want 6", len(insts))
	}
	if insts[0].Key() != "greedy-best-fit/none" || insts[5].Key() != "utilization-first/address-space" {
		t.Errorf("instance order: first=%s last=%s", insts[0].Key(), insts[5].Key())
	}
}

func TestDefaultsApplied(t *testing.T) {
	sp, err := Parse([]byte(minimalJSON))
	if err != nil {
		t.Fatal(err)
	}
	sp.Runs = 0
	sp.HorizonS = 0
	d := sp.withDefaults()
	if d.Runs != 5 || d.HorizonS != 3600 || *d.Machines.BandwidthMiBps != 1 || d.Workload.ImageMiB != 1 {
		t.Errorf("defaults = runs=%d horizon=%v bw=%v image=%v", d.Runs, d.HorizonS, *d.Machines.BandwidthMiBps, d.Workload.ImageMiB)
	}
	if sp.Runs != 0 {
		t.Error("withDefaults mutated the receiver")
	}
}
