package scenarios

import "testing"

func TestBuiltinsValidate(t *testing.T) {
	names := Names()
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
