package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentFails: an ID that names no experiment (IDs are case
// sensitive) exits non-zero and lists the known IDs instead of running
// nothing.
func TestUnknownExperimentFails(t *testing.T) {
	for _, id := range []string{"e7", "E99"} {
		var out, errOut bytes.Buffer
		code := run([]string{"-run", id}, &out, &errOut)
		if code == 0 || out.Len() != 0 {
			t.Errorf("vcesim -run %s: exit %d, stdout %q", id, code, out.String())
		}
		for _, want := range []string{id, "E1 ", "E7 ", "E14"} {
			if !strings.Contains(errOut.String(), want) {
				t.Errorf("vcesim -run %s: stderr %q lacks %q", id, errOut.String(), want)
			}
		}
	}
}

// TestRunOneExperiment: a known ID runs that experiment only.
func TestRunOneExperiment(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-run", "E6"}, &out, &errOut); code != 0 {
		t.Fatalf("vcesim -run E6: exit %d, stderr %q", code, errOut.String())
	}
	if got := strings.Count(out.String(), "=== "); got != 1 || !strings.Contains(out.String(), "=== E6:") {
		t.Fatalf("vcesim -run E6 printed %d experiments:\n%s", got, out.String())
	}
}
