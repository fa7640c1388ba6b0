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
	// ID is the experiment identifier (E1..E12, plus ablation suffixes).
	ID string
	// Title summarizes what is reproduced.
	Title string
	// Table holds the regenerated rows.
	Table *metrics.Table
	// Notes records the measured shape statements (what EXPERIMENTS.md
	// quotes).
	Notes []string
}

func (r *Result) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Runner is one experiment entry point.
type Runner struct {
	// ID and Title identify the experiment without running it.
	ID, Title string
	// Run executes it.
	Run func() (*Result, error)
}

// All returns every experiment in index order.
func All() []Runner {
	return []Runner{
		{"E1", "Fig 1: SDM→EXM pipeline on the weather application", E1Pipeline},
		{"E2", "Fig 2: proxy method invocation overhead", E2Proxy},
		{"E3", "Fig 3: bidding protocol latency and selection", E3Bidding},
		{"E3a", "Ablation: reply collection with a crashed bidder", E3aCrashedBidder},
		{"E4", "§5: group-leader failover", E4Failover},
		{"E5", "§4.3: throughput-first vs per-job greedy placement", E5Placement},
		{"E6", "§4.3: priority aging prevents starvation", E6Aging},
		{"E7", "§4.4: migration strategy costs", E7Migration},
		{"E7a", "Ablation: checkpoint interval sweep", E7aCheckpointInterval},
		{"E7b", "Ablation: adaptive strategy selection", E7bAdaptivePicker},
		{"E8", "§4.3: ripple effect — suspension vs migration", E8Ripple},
		{"E9", "§4.5: free parallelism", E9FreeParallelism},
		{"E10", "§4.5: anticipatory compilation and replication", E10Anticipatory},
		{"E10a", "Ablation: anticipatory replication fanout", E10aReplicationFanout},
		{"E11", "§4.4: redundant execution vs suspension", E11Redundant},
		{"E12", "§5: concurrent execution programs", E12Concurrency},
		{"E13", "§4.3: remote execution and migration vs owner activity", E13Utilization},
		{"E14", "Scenario engine: declarative owner-churn policy matrix", E14ScenarioMatrix},
	}
}

// seed is the root seed for every randomized experiment; fixed so tables are
// reproducible run to run.
const seed = 0x5ce_1994
