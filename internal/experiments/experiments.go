// Package experiments contains the reproduction harnesses indexed in
// DESIGN.md §11: one experiment per figure and per quantified claim of the
// paper. Each harness builds its workload, runs it (live protocol stack or
// discrete-event simulator, as appropriate), emits a table shaped like the
// result the paper asserts, and *checks* the qualitative claim — who wins,
// in which direction — returning an error if the reproduction no longer
// shows the paper's shape.
package experiments

import (
	"fmt"

	"vce/internal/metrics"
)

// Result is one experiment's output.
type Result struct {
	// ID is the experiment identifier (E1..E14, plus ablation suffixes).
	ID string
	// Title summarizes what is reproduced.
	Title string
	// Table holds the regenerated rows.
	Table *metrics.Table
	// Notes records the measured shape statements, printed under the
	// table.
	Notes []string
}

func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Runner is one experiment entry point.
type Runner struct {
	// ID identifies the experiment without running it; the title is the
	// Result's.
	ID string
	// Run executes it.
	Run func() (*Result, error)
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{"E1", E1Pipeline},
		{"E2", E2Proxy},
		{"E3", E3Bidding},
		{"E3a", E3aCrashedBidder},
		{"E4", E4Failover},
		{"E5", E5Placement},
		{"E6", E6Aging},
		{"E7", E7Migration},
		{"E7a", E7aCheckpointInterval},
		{"E7b", E7bAdaptivePicker},
		{"E8", E8Ripple},
		{"E9", E9FreeParallelism},
		{"E10", E10Anticipatory},
		{"E10a", E10aReplicationFanout},
		{"E11", E11Redundant},
		{"E12", E12Concurrency},
		{"E13", E13Utilization},
		{"E14", E14ScenarioMatrix},
	}
}

// seed is the root seed for every randomized experiment; fixed so tables are
// reproducible run to run.
const seed = 0x5ce_1994
