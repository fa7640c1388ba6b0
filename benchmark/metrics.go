package main

import (
	"encoding/json"
	"math"
)

// metric describes one number the benchmark reports. The tables below are
// the single list of names: BENCHMARK.json repeats them (a test keeps the two
// equal) and the README explains them.
type metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is, for an end-to-end metric, the share of the parent's median
	// by which it may get worse before a change counts as a regression; 0
	// means any worsening does.
	Bound float64
	// Gated marks the end-to-end metrics BENCHMARK.json lists under
	// end_to_end, where the harness holds Bound. That list takes only metrics
	// that are a non-zero number on every run of every workload, so
	// failed_pct (0 on every healthy run) and sweep_p90_ms (null on a pass
	// under 100 ops) are listed with the per-layer metrics instead, unbounded.
	Gated bool
	// Layer, Src and Moves describe a per-layer metric: the module it
	// belongs to, where the number comes from (T traced pass, C exact
	// counter, P probe pass), and the end-to-end metric and workload it is
	// expected to move.
	Layer, Src, Moves string
}

// endToEnd are the numbers a user of the stack sees, reported for every
// workload from the untraced pass.
//
// The bounds are the issue's table where the reference host can hold them and
// three times the widest ten-seed spread measured on it otherwise, up to the
// harness's ceiling of a quarter (README, Baseline): a bound inside a
// metric's own run-to-run spread would make the benchmark reject itself.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "cells_per_s", Unit: "cells/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "tasks_per_s", Unit: "tasks/s", Better: "higher", Bound: 0.25, Gated: true},
	{Name: "sweep_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Gated: true},
	{Name: "sweep_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "failed_pct", Unit: "%", Better: "lower", Bound: 0},
	{Name: "peak_rss_mib", Unit: "MiB", Better: "lower", Bound: 0.10, Gated: true},
}

// gated and ledger split the tables the way BENCHMARK.json lists them:
// end_to_end holds the gated end-to-end metrics, per_layer everything else.
func gated() []metric {
	var out []metric
	for _, m := range endToEnd {
		if m.Gated {
			out = append(out, m)
		}
	}
	return out
}

func ledger() []metric {
	var out []metric
	for _, m := range endToEnd {
		if !m.Gated {
			out = append(out, m)
		}
	}
	return append(out, perLayer...)
}

var perLayer = []metric{
	{Name: "vtime.replace_ns", Unit: "ns", Better: "lower", Layer: "vtime", Src: "P", Moves: "tasks_per_s on stream_cell, sweep_cold (by at most the kernel's share)"},
	{Name: "vtime.cancel_replace_ns", Unit: "ns", Better: "lower", Layer: "vtime", Src: "P", Moves: "tasks_per_s on stream_cell, sweep_cold"},
	{Name: "vtime.drain_ns", Unit: "ns/event", Better: "lower", Layer: "vtime", Src: "P", Moves: "tasks_per_s on stream_cell, sweep_cold"},
	{Name: "vtime.fired", Unit: "count", Better: "lower", Layer: "vtime", Src: "C", Moves: "none: exact per seed, a change is a change in simulated behaviour"},
	{Name: "vtime.scheduled", Unit: "count", Better: "lower", Layer: "vtime", Src: "C", Moves: "none: exact per seed"},
	{Name: "vtime.cancelled", Unit: "count", Better: "lower", Layer: "vtime", Src: "C", Moves: "none: exact per seed"},
	{Name: "vtime.heap_max", Unit: "count", Better: "lower", Layer: "vtime", Src: "C", Moves: "none: exact per seed"},

	{Name: "sim.events_per_s.m1k", Unit: "events/s", Better: "higher", Layer: "sim", Src: "P", Moves: "tasks_per_s on sweep_cold"},
	{Name: "sim.events_per_s.m10k", Unit: "events/s", Better: "higher", Layer: "sim", Src: "P", Moves: "tasks_per_s on sweep_cold"},
	{Name: "sim.events_per_s.m100k", Unit: "events/s", Better: "higher", Layer: "sim", Src: "P", Moves: "no end-to-end twin yet (fleet-scale worlds)"},
	{Name: "sim.alloc_b_per_event.m10k", Unit: "B/event", Better: "lower", Layer: "sim", Src: "P", Moves: "tasks_per_s on sweep_cold"},
	{Name: "sim.load_step_ns", Unit: "ns", Better: "lower", Layer: "sim", Src: "P", Moves: "tasks_per_s on sweep_cold (owner churn)"},
	{Name: "sim.state_changes", Unit: "count", Better: "lower", Layer: "sim", Src: "C", Moves: "none: exact per seed"},

	{Name: "sched.place_ns_per_item.greedy-best-fit", Unit: "ns", Better: "lower", Layer: "sched", Src: "P", Moves: "tasks_per_s on sweep_cold, stream_cell"},
	{Name: "sched.place_ns_per_item.utilization-first", Unit: "ns", Better: "lower", Layer: "sched", Src: "P", Moves: "tasks_per_s on sweep_cold"},
	{Name: "sched.place_ns_per_item.locality", Unit: "ns", Better: "lower", Layer: "sched", Src: "P", Moves: "tasks_per_s on dag_topo only"},

	{Name: "netsim.transfer_ns.flat", Unit: "ns", Better: "lower", Layer: "netsim", Src: "P", Moves: "tasks_per_s on sweep_cold (migration images)"},
	{Name: "netsim.transfer_ns.resolver", Unit: "ns", Better: "lower", Layer: "netsim", Src: "P", Moves: "tasks_per_s on dag_topo (staging)"},

	{Name: "cell.setup_ms_p50", Unit: "ms", Better: "lower", Layer: "cell", Src: "T", Moves: "sweep_p50_ms on sweep_cold, dag_topo"},
	{Name: "cell.simulate_ms_p50", Unit: "ms", Better: "lower", Layer: "cell", Src: "T", Moves: "sweep_p50_ms, tasks_per_s on sweep_cold, dag_topo, stream_cell"},
	{Name: "cell.measure_ms_p50", Unit: "ms", Better: "lower", Layer: "cell", Src: "T", Moves: "sweep_p50_ms on sweep_cold, dag_topo"},
	{Name: "cell.total_ms_p50", Unit: "ms", Better: "lower", Layer: "cell", Src: "T", Moves: "sweep_p50_ms on sweep_cold, dag_topo, stream_cell; 0 on sweep_warm"},
	{Name: "cell.total_ms_p90", Unit: "ms", Better: "lower", Layer: "cell", Src: "T", Moves: "sweep_p90_ms on sweep_cold, dag_topo"},
	{Name: "cell.events_per_task", Unit: "events/task", Better: "lower", Layer: "cell", Src: "T", Moves: "tasks_per_s on sweep_cold, dag_topo, stream_cell"},
	{Name: "cell.ns_per_event", Unit: "ns/event", Better: "lower", Layer: "cell", Src: "T", Moves: "tasks_per_s on sweep_cold, dag_topo, stream_cell"},
	{Name: "cell.simulate_share_pct", Unit: "%", Better: "higher", Layer: "cell", Src: "T", Moves: "none: where a cell's time goes"},
	{Name: "cell.fresh_ms_p50", Unit: "ms", Better: "lower", Layer: "cell", Src: "P", Moves: "none while sweeps run on the arena"},
	{Name: "cell.arena_gain", Unit: "ratio", Better: "higher", Layer: "cell", Src: "P", Moves: "guards sweep_cold when FreshWorlds is collapsed"},

	{Name: "exec.setup_ms_p50", Unit: "ms", Better: "lower", Layer: "exec", Src: "T", Moves: "sweep_p50_ms on sweep_warm"},
	{Name: "exec.execute_ms_p50", Unit: "ms", Better: "lower", Layer: "exec", Src: "T", Moves: "cells_per_s on sweep_cold, sweep_warm"},
	{Name: "exec.merge_ms_p50", Unit: "ms", Better: "lower", Layer: "exec", Src: "T", Moves: "cells_per_s on sweep_warm"},
	{Name: "exec.queue_wait_ms_p50", Unit: "ms", Better: "lower", Layer: "exec", Src: "T", Moves: "cells_per_s on sweep_cold"},
	{Name: "exec.worker_busy_pct", Unit: "%", Better: "higher", Layer: "exec", Src: "T", Moves: "cells_per_s on sweep_cold, sweep_warm"},
	{Name: "exec.overhead_ms_p50", Unit: "ms", Better: "lower", Layer: "exec", Src: "T", Moves: "cells_per_s on sweep_cold, sweep_warm; nothing on stream_cell"},

	{Name: "spec.parse_us", Unit: "us", Better: "lower", Layer: "spec", Src: "P", Moves: "sweep_p50_ms on sweep_warm, serve_mixed"},
	{Name: "spec.cellkey_us", Unit: "us", Better: "lower", Layer: "spec", Src: "P", Moves: "sweep_p50_ms on sweep_warm, serve_mixed"},

	{Name: "store.put_us_p50", Unit: "us", Better: "lower", Layer: "store", Src: "P", Moves: "sweep_p50_ms on sweep_cold, serve_mixed"},
	{Name: "store.get_hit_us_p50", Unit: "us", Better: "lower", Layer: "store", Src: "P", Moves: "sweep_p50_ms on sweep_warm"},
	{Name: "store.get_miss_us_p50", Unit: "us", Better: "lower", Layer: "store", Src: "P", Moves: "sweep_p50_ms on sweep_cold, serve_mixed"},
	{Name: "store.hits", Unit: "count", Better: "higher", Layer: "store", Src: "C", Moves: "none: exact per seed"},
	{Name: "store.misses", Unit: "count", Better: "lower", Layer: "store", Src: "C", Moves: "none: exact per seed; must be 0 on sweep_warm"},
	{Name: "store.corrupt", Unit: "count", Better: "lower", Layer: "store", Src: "C", Moves: "none: must be 0"},
	{Name: "store.put_errors", Unit: "count", Better: "lower", Layer: "store", Src: "C", Moves: "none: must be 0"},
	{Name: "store.hit_ratio", Unit: "ratio", Better: "higher", Layer: "store", Src: "C", Moves: "cells_per_s on serve_mixed"},

	{Name: "analyze.write_artifacts_ms_p50", Unit: "ms", Better: "lower", Layer: "analyze", Src: "T", Moves: "sweep_p50_ms on sweep_warm, serve_mixed"},
	{Name: "analyze.load_report_ms", Unit: "ms", Better: "lower", Layer: "analyze", Src: "P", Moves: "none end to end yet (vcebench merge)"},
	{Name: "analyze.merge_ms", Unit: "ms", Better: "lower", Layer: "analyze", Src: "P", Moves: "none end to end yet (vcebench merge)"},

	{Name: "service.submit_ack_ms_p50", Unit: "ms", Better: "lower", Layer: "service", Src: "T", Moves: "sweep_p50_ms on serve_mixed"},
	{Name: "service.submit_ack_ms_p90", Unit: "ms", Better: "lower", Layer: "service", Src: "T", Moves: "sweep_p90_ms on serve_mixed"},
	{Name: "service.first_event_ms_p50", Unit: "ms", Better: "lower", Layer: "service", Src: "T", Moves: "sweep_p50_ms on serve_mixed"},
	{Name: "service.report_get_ms_p50", Unit: "ms", Better: "lower", Layer: "service", Src: "T", Moves: "sweep_p50_ms on serve_mixed"},
	{Name: "service.sweep_p99_ms", Unit: "ms", Better: "lower", Layer: "service", Src: "T", Moves: "sweep_p90_ms on serve_mixed"},
	{Name: "service.events_per_sweep", Unit: "count", Better: "lower", Layer: "service", Src: "T", Moves: "none: progress fan-out volume"},
	{Name: "service.stats_ms_p50", Unit: "ms", Better: "lower", Layer: "service", Src: "T", Moves: "none: an operator's /stats on a grown cache dir"},
	{Name: "service.recover_s", Unit: "s", Better: "lower", Layer: "service", Src: "T", Moves: "none: restart on a populated cache dir"},
	{Name: "service.cells_cached", Unit: "count", Better: "higher", Layer: "service", Src: "C", Moves: "none: exact per seed"},
	{Name: "service.cells_simulated", Unit: "count", Better: "lower", Layer: "service", Src: "C", Moves: "none: exact per seed"},
	{Name: "service.dedup_ratio", Unit: "ratio", Better: "higher", Layer: "service", Src: "C", Moves: "cells_per_s on serve_mixed"},
	{Name: "service.sweeps_failed", Unit: "count", Better: "lower", Layer: "service", Src: "C", Moves: "none: must be 0"},

	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower", Layer: "obs", Src: "T", Moves: "none: the price of the traced pass"},
	{Name: "obs.spans_recorded", Unit: "count", Better: "lower", Layer: "obs", Src: "T", Moves: "none"},

	{Name: "process.cpu_user_s", Unit: "s", Better: "lower", Layer: "process", Src: "C", Moves: "tasks_per_s on every workload"},
	{Name: "process.cpu_sys_s", Unit: "s", Better: "lower", Layer: "process", Src: "C", Moves: "sweep_p50_ms on sweep_warm, serve_mixed (file and socket work)"},
	{Name: "process.alloc_mib", Unit: "MiB", Better: "lower", Layer: "process", Src: "C", Moves: "peak_rss_mib; repeats closely, so an allocation claim may name it"},
	{Name: "process.allocs_per_task", Unit: "count", Better: "lower", Layer: "process", Src: "C", Moves: "tasks_per_s on stream_cell, sweep_cold"},
	{Name: "process.gc_cycles", Unit: "count", Better: "lower", Layer: "process", Src: "C", Moves: "sweep_p90_ms on every workload"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower", Layer: "process", Src: "C", Moves: "sweep_p90_ms on every workload"},
	{Name: "host.steal_pct", Unit: "%", Better: "lower", Layer: "process", Src: "C", Moves: "every wall-clock metric: above 5 % the set is labelled noisy"},
}

// values maps metric names to measured values. NaN is a metric with no value
// on this run (a p90 over too few samples) and is written as JSON null.
type values map[string]float64

func (v values) MarshalJSON() ([]byte, error) {
	out := make(map[string]*float64, len(v))
	for k, x := range v {
		out[k] = nil
		if !math.IsNaN(x) {
			out[k] = &x
		}
	}
	return json.Marshal(out)
}

func (v *values) UnmarshalJSON(data []byte) error {
	var in map[string]*float64
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	*v = make(values, len(in))
	for k, x := range in {
		if x == nil {
			(*v)[k] = math.NaN()
		} else {
			(*v)[k] = *x
		}
	}
	return nil
}
