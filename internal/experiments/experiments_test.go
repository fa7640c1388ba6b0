package experiments

import (
	"strings"
	"testing"
)

// Each experiment's Run both regenerates its table and asserts the paper's
// qualitative shape internally, so these tests are the reproduction's
// continuous validation.

func runAndCheck(t *testing.T, id string, run func() (*Result, error)) *Result {
	t.Helper()
	res, err := run()
	if err != nil {
		t.Fatalf("%s failed: %v", id, err)
	}
	if res.ID != id {
		t.Fatalf("result ID = %s, want %s", res.ID, id)
	}
	if res.Table == nil || res.Table.NumRows() == 0 {
		t.Fatalf("%s produced no table rows", id)
	}
	if len(res.Notes) == 0 {
		t.Fatalf("%s recorded no shape notes", id)
	}
	out := res.Table.String()
	if !strings.Contains(out, res.Table.Columns[0]) {
		t.Fatalf("%s table render broken:\n%s", id, out)
	}
	return res
}

func TestE1Pipeline(t *testing.T)    { runAndCheck(t, "E1", E1Pipeline) }
func TestE2Proxy(t *testing.T)       { runAndCheck(t, "E2", E2Proxy) }
func TestE3Bidding(t *testing.T)     { runAndCheck(t, "E3", E3Bidding) }
func TestE4Failover(t *testing.T)    { runAndCheck(t, "E4", E4Failover) }
func TestE5Placement(t *testing.T)   { runAndCheck(t, "E5", E5Placement) }
func TestE6Aging(t *testing.T)       { runAndCheck(t, "E6", E6Aging) }
func TestE7Migration(t *testing.T)   { runAndCheck(t, "E7", E7Migration) }
func TestE8Ripple(t *testing.T)      { runAndCheck(t, "E8", E8Ripple) }
func TestE9FreePar(t *testing.T)     { runAndCheck(t, "E9", E9FreeParallelism) }
func TestE10Antic(t *testing.T)      { runAndCheck(t, "E10", E10Anticipatory) }
func TestE11Redundant(t *testing.T)  { runAndCheck(t, "E11", E11Redundant) }
func TestE12Concurrent(t *testing.T) { runAndCheck(t, "E12", E12Concurrency) }

func TestE3aCrashedBidder(t *testing.T)      { runAndCheck(t, "E3a", E3aCrashedBidder) }
func TestE7aCheckpointInterval(t *testing.T) { runAndCheck(t, "E7a", E7aCheckpointInterval) }
func TestE7bAdaptivePicker(t *testing.T)     { runAndCheck(t, "E7b", E7bAdaptivePicker) }
func TestE10aReplicationFanout(t *testing.T) { runAndCheck(t, "E10a", E10aReplicationFanout) }
func TestE13Utilization(t *testing.T)        { runAndCheck(t, "E13", E13Utilization) }
func TestE14ScenarioMatrix(t *testing.T)     { runAndCheck(t, "E14", E14ScenarioMatrix) }

func TestAllRegistryComplete(t *testing.T) {
	runners := All()
	if len(runners) != 18 {
		t.Fatalf("registry has %d experiments, want 18", len(runners))
	}
	seen := map[string]bool{}
	for _, r := range runners {
		if r.ID == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if seen[r.ID] {
			t.Fatalf("duplicate experiment ID %s", r.ID)
		}
		seen[r.ID] = true
	}
	for _, id := range []string{"E1", "E5", "E9", "E12", "E10a"} {
		if !seen[id] {
			t.Fatalf("experiment %s missing from registry", id)
		}
	}
}
