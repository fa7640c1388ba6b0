package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"vce/internal/metrics"
)

// Indexes are the comparison indexes of one run: what the analyzer
// aggregates across seeds.
type Indexes struct {
	// MakespanS is the completion time of the last finished task (seconds);
	// the horizon if nothing finished.
	MakespanS float64 `json:"makespan_s"`
	// ThroughputPerH is completed tasks per simulated hour.
	ThroughputPerH float64 `json:"throughput_per_h"`
	// MeanCompletionS averages completion instants of finished tasks.
	MeanCompletionS float64 `json:"mean_completion_s"`
	// UtilizationPct is the machine-mean time-weighted fraction of
	// capacity spent on VCE work, in percent.
	UtilizationPct float64 `json:"utilization_pct"`
	// Migrations counts successful task migrations.
	Migrations int64 `json:"migrations"`
	// Suspensions counts suspension events (Stealth transitions or
	// migration fallbacks).
	Suspensions int64 `json:"suspensions"`
	// Failed counts task incarnations killed by machine failures.
	Failed int64 `json:"failed"`
	// Rejected counts the tasks never placed: bounded-queue admission
	// refusals, arrivals past the horizon, Locality drops and waiters the
	// horizon found unplaced — tasks − tasks placed once. (Until the next
	// engine version it also counts Locality drops of tasks placed before.)
	Rejected int `json:"rejected"`
	// Completed counts finished tasks.
	Completed int `json:"completed"`
	// SlowdownP50 and SlowdownP99 are steady-state slowdown quantiles:
	// (finish − arrival) / (work at speed 1.0), from the run's fixed-shape
	// quantile sketch (see the cell's accumulators and measure, cell.go).
	SlowdownP50 float64 `json:"slowdown_p50"`
	SlowdownP99 float64 `json:"slowdown_p99"`
	// QueueDepthMean is the time-weighted mean waiting-queue depth over the
	// run; QueueDepthMax is the largest settled backlog observed.
	QueueDepthMean float64 `json:"queue_depth_mean"`
	QueueDepthMax  float64 `json:"queue_depth_max"`
	// RejectRatePct is Rejected as a percentage of the offered tasks.
	RejectRatePct float64 `json:"reject_rate_pct"`
	// ForwardedPct is the percentage of data-affine task placements (DAG
	// tasks with completed parents, under a site topology) whose first
	// placement landed off the site holding their dependency data.
	ForwardedPct float64 `json:"forwarded_pct"`
	// XferWaitS totals the seconds tasks spent staging dependency data
	// across the network before starting.
	XferWaitS float64 `json:"xfer_wait_s"`
	// CriticalPathStretch is MakespanS over the workload DAG's ideal
	// critical path (unit speed, free transfers); zero for independent
	// workloads.
	CriticalPathStretch float64 `json:"critical_path_stretch"`
}

// Cell aggregates one policy-matrix cell's runs.
type Cell struct {
	// Sched and Migration name the cell.
	Sched     string `json:"sched"`
	Migration string `json:"migration"`
	// Runs holds the per-seed indexes in run order.
	Runs []Indexes `json:"runs"`
	// RunNumbers lists the original run index of each Runs entry. A
	// complete sweep yields 0..Runs-1 and leaves it empty; a partial report
	// (a shard, or a merge of some of a sweep's shards) keeps its runs' true
	// seed identities so runs.csv rows still correlate with run indexes.
	RunNumbers []int `json:"run_numbers,omitempty"`
}

// runNumber returns the original run index of entry i.
func (c *Cell) runNumber(i int) int {
	if i < len(c.RunNumbers) {
		return c.RunNumbers[i]
	}
	return i
}

// Report is the analyzed outcome of a scenario: every cell with its per-run
// indexes, ready to render as comparison tables and artifacts.
type Report struct {
	// Engine stamps the simulation semantics that produced the indexes
	// (EngineVersion at execution time). MergeReports refuses to combine
	// reports carrying different stamps: their numbers are not one sweep.
	// Empty in artifacts written before the stamp existed, which
	// MergeReports refuses as well.
	Engine string `json:"engine,omitempty"`
	// Spec is the executed scenario (defaults applied).
	Spec *Spec `json:"spec"`
	// Cells lists the matrix cells in expansion order.
	Cells []Cell `json:"cells"`
}

// aggKind selects how ComparisonTable condenses a column's per-run spread
// into one human-facing cell.
type aggKind int

const (
	// aggMeanStd renders "mean ± stddev" (mean-only for single-run cells).
	aggMeanStd aggKind = iota
	// aggPeak renders the maximum across runs — the honest aggregate for
	// per-run maxima, where a mean would understate the worst backlog seen.
	aggPeak
)

// indexColumn is one entry of the declarative index registry: the artifact
// column name (the Indexes field's JSON tag), the human unit, the getter,
// and how the comparison table aggregates it across runs. Every table and
// CSV/JSON writer walks this one list, so adding a steady-state index is a
// single registration here plus the field on Indexes.
type indexColumn struct {
	name string
	unit string
	get  func(Indexes) float64
	agg  aggKind
}

// indexRegistry lists the report columns in artifact order. The order is
// pinned by the golden artifacts: append new indexes, never reorder.
var indexRegistry = []indexColumn{
	{"makespan_s", "s", func(i Indexes) float64 { return i.MakespanS }, aggMeanStd},
	{"throughput_per_h", "tasks/h", func(i Indexes) float64 { return i.ThroughputPerH }, aggMeanStd},
	{"mean_completion_s", "s", func(i Indexes) float64 { return i.MeanCompletionS }, aggMeanStd},
	{"utilization_pct", "%", func(i Indexes) float64 { return i.UtilizationPct }, aggMeanStd},
	{"completed", "tasks", func(i Indexes) float64 { return float64(i.Completed) }, aggMeanStd},
	{"migrations", "events", func(i Indexes) float64 { return float64(i.Migrations) }, aggMeanStd},
	{"suspensions", "events", func(i Indexes) float64 { return float64(i.Suspensions) }, aggMeanStd},
	{"failed", "tasks", func(i Indexes) float64 { return float64(i.Failed) }, aggMeanStd},
	{"rejected", "tasks", func(i Indexes) float64 { return float64(i.Rejected) }, aggMeanStd},
	{"slowdown_p50", "×", func(i Indexes) float64 { return i.SlowdownP50 }, aggMeanStd},
	{"slowdown_p99", "×", func(i Indexes) float64 { return i.SlowdownP99 }, aggMeanStd},
	{"queue_depth_mean", "tasks", func(i Indexes) float64 { return i.QueueDepthMean }, aggMeanStd},
	{"queue_depth_max", "tasks", func(i Indexes) float64 { return i.QueueDepthMax }, aggPeak},
	{"reject_rate_pct", "%", func(i Indexes) float64 { return i.RejectRatePct }, aggMeanStd},
	{"forwarded_pct", "%", func(i Indexes) float64 { return i.ForwardedPct }, aggMeanStd},
	{"xfer_wait_s", "s", func(i Indexes) float64 { return i.XferWaitS }, aggMeanStd},
	{"critical_path_stretch", "×", func(i Indexes) float64 { return i.CriticalPathStretch }, aggMeanStd},
}

// fmtAgg renders one comparison cell per the column's aggregation kind.
func fmtAgg(d *metrics.Dist, agg aggKind) string {
	if agg == aggPeak {
		return fmt.Sprintf("%.4g", d.Max())
	}
	return fmtMS(d)
}

// fmtMS renders a mean ± stddev cell. A single-run cell has no spread to
// report — its stddev is a degenerate 0 — so it renders mean-only.
func fmtMS(d *metrics.Dist) string {
	if d.N() <= 1 {
		return fmt.Sprintf("%.4g", d.Mean())
	}
	return fmt.Sprintf("%.4g ± %.3g", d.Mean(), d.Stddev())
}

// num renders a float at full precision for the machine-facing tables —
// Table.AddRow's display rounding (%.4f) would collapse small stddevs to 0.
func num(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// ComparisonTable renders the human-facing mean±stddev matrix: one row per
// cell, one column per index.
func (r *Report) ComparisonTable() *metrics.Table {
	cols := []string{"sched", "migration"}
	for _, c := range indexRegistry {
		cols = append(cols, c.name)
	}
	title := fmt.Sprintf("%s: policy matrix, mean ± stddev over %d runs", r.Spec.Name, r.Spec.Runs)
	for _, cell := range r.Cells {
		if len(cell.Runs) != r.Spec.Runs {
			title += " (partial: some runs missing, see indexes.csv runs column)"
			break
		}
	}
	t := metrics.NewTable(title, cols...)
	for _, cell := range r.Cells {
		row := []interface{}{cell.Sched, cell.Migration}
		for _, c := range indexRegistry {
			row = append(row, fmtAgg(dist(cell.Runs, c.get), c.agg))
		}
		t.AddRow(row...)
	}
	return t
}

// IndexTable renders the machine-facing aggregate: separate full-precision
// mean and stddev columns per index, for CSV/JSON consumers.
func (r *Report) IndexTable() *metrics.Table {
	cols := []string{"sched", "migration", "runs"}
	for _, c := range indexRegistry {
		cols = append(cols, c.name+"_mean", c.name+"_std")
	}
	t := metrics.NewTable(r.Spec.Name, cols...)
	for _, cell := range r.Cells {
		row := []interface{}{cell.Sched, cell.Migration, len(cell.Runs)}
		for _, c := range indexRegistry {
			d := dist(cell.Runs, c.get)
			row = append(row, num(d.Mean()), num(d.Stddev()))
		}
		t.AddRow(row...)
	}
	return t
}

// RunsTable renders the raw per-run indexes, one row per (cell, run).
func (r *Report) RunsTable() *metrics.Table {
	cols := []string{"sched", "migration", "run"}
	for _, c := range indexRegistry {
		cols = append(cols, c.name)
	}
	t := metrics.NewTable(r.Spec.Name+": per-run indexes", cols...)
	for _, cell := range r.Cells {
		for i, idx := range cell.Runs {
			row := make([]string, 0, len(cols))
			row = append(row, cell.Sched, cell.Migration, strconv.Itoa(cell.runNumber(i)))
			for _, c := range indexRegistry {
				row = append(row, num(c.get(idx)))
			}
			t.AddStrings(row)
		}
	}
	return t
}

// Markdown renders the full report as a Markdown document.
func (r *Report) Markdown() string {
	return r.markdown(r.ComparisonTable(), r.RunsTable())
}

// markdown renders the document around the report's already built
// comparison and per-run tables.
func (r *Report) markdown(comparison, runs *metrics.Table) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Scenario %s\n\n", r.Spec.Name)
	if r.Spec.Description != "" {
		fmt.Fprintf(&b, "%s\n\n", r.Spec.Description)
	}
	fmt.Fprintf(&b, "%d scheduling policies × %d migration strategies, %d runs per cell, seed %d, horizon %.0fs.\n\n",
		len(r.Spec.Policies.Scheduling), len(r.Spec.Policies.Migration), r.Spec.Runs, r.Spec.Seed, r.Spec.HorizonS)
	b.WriteString("## Index comparison (mean ± stddev)\n\n")
	b.WriteString(comparison.Markdown())
	b.WriteString("\nUnits: ")
	for i, c := range indexRegistry {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s (%s)", c.name, c.unit)
	}
	b.WriteString(". queue_depth_max is the maximum across runs; all other columns are per-run means.\n")
	b.WriteString("\n## Per-run indexes\n\n")
	b.WriteString(runs.Markdown())
	return b.String()
}

// WriteArtifacts writes the report's artifact set into dir (created if
// needed) and returns the written paths:
//
//	report.txt   — aligned plain-text comparison table
//	report.md    — Markdown document (comparison + per-run tables)
//	indexes.csv  — aggregated indexes, numeric mean/std columns
//	indexes.json — same aggregate as JSON
//	runs.csv     — raw per-run indexes
//	spec.json    — the executed spec (defaults applied), for reproduction
//	report.json  — the full serialized Report; what LoadReport reads and
//	               `vcebench merge` combines across shard directories
func (r *Report) WriteArtifacts(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	// Each table is built once (one dist pass over cells × columns) and
	// rendered every way it is published; rendering only reads it, so the
	// files are rendered and written concurrently, each by its own writer.
	comparison, index, runs := r.ComparisonTable(), r.IndexTable(), r.RunsTable()
	text := func(render func() string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, render()); return err }
	}
	steps := []struct {
		name string
		gen  func(io.Writer) error
	}{
		{"report.txt", text(comparison.String)},
		{"report.md", text(func() string { return r.markdown(comparison, runs) })},
		{"indexes.csv", index.WriteCSV},
		{"indexes.json", index.WriteJSON},
		{"runs.csv", runs.WriteCSV},
		{"spec.json", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(r.Spec)
		}},
		{ReportFile, func(w io.Writer) error {
			b, err := r.appendJSON(nil)
			if err != nil {
				return err
			}
			_, err = w.Write(b)
			return err
		}},
	}
	errs := make([]error, len(steps))
	var wg sync.WaitGroup
	for i, s := range steps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = writeArtifact(filepath.Join(dir, s.name), s.gen)
		}()
	}
	wg.Wait()
	// The paths come back in step order, up to the first step that failed.
	var written []string
	for i, s := range steps {
		if errs[i] != nil {
			return written, errs[i]
		}
		written = append(written, filepath.Join(dir, s.name))
	}
	return written, nil
}

// writeArtifact creates the file at path and fills it with gen.
func writeArtifact(path string, gen func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := gen(f); err != nil {
		f.Close()
		return fmt.Errorf("scenario: writing %s: %w", filepath.Base(path), err)
	}
	return f.Close()
}

// appendJSON appends the report as a json.Encoder with SetIndent("", "  ")
// writes it, trailing newline included, laying out the cells by hand and
// the runs through the Indexes codec: report.json is the largest artifact
// of a big sweep, and reflection was most of its cost. Strings and the
// spec still go through encoding/json, so their escaping is its own.
func (r *Report) appendJSON(b []byte) ([]byte, error) {
	str := func(b []byte, s string) []byte {
		q, _ := json.Marshal(s) // a string always marshals
		return append(b, q...)
	}
	b = append(b, "{\n"...)
	if r.Engine != "" {
		b = str(append(b, `  "engine": `...), r.Engine)
		b = append(b, ",\n"...)
	}
	spec, err := json.MarshalIndent(r.Spec, "  ", "  ")
	if err != nil {
		return nil, err
	}
	b = append(append(b, `  "spec": `...), spec...)
	b = append(b, ",\n  \"cells\": "...)
	switch {
	case r.Cells == nil:
		b = append(b, "null"...)
	case len(r.Cells) == 0:
		b = append(b, "[]"...)
	default:
		b = append(b, '[')
		for i := range r.Cells {
			c := &r.Cells[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = str(append(b, "\n    {\n      \"sched\": "...), c.Sched)
			b = str(append(b, ",\n      \"migration\": "...), c.Migration)
			b = append(b, ",\n      \"runs\": "...)
			switch {
			case c.Runs == nil:
				b = append(b, "null"...)
			case len(c.Runs) == 0:
				b = append(b, "[]"...)
			default:
				b = append(b, '[')
				for j := range c.Runs {
					if j > 0 {
						b = append(b, ',')
					}
					if b, err = appendIndexes(append(b, "\n        "...), &c.Runs[j], "        ", "  "); err != nil {
						return nil, err
					}
				}
				b = append(b, "\n      ]"...)
			}
			if len(c.RunNumbers) > 0 {
				b = append(b, ",\n      \"run_numbers\": ["...)
				for j, n := range c.RunNumbers {
					if j > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(append(b, "\n        "...), int64(n), 10)
				}
				b = append(b, "\n      ]"...)
			}
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	return append(b, "\n}\n"...), nil
}

// dist builds a metrics.Dist over a per-run index extracted by f.
func dist(runs []Indexes, f func(Indexes) float64) *metrics.Dist {
	var d metrics.Dist
	for _, r := range runs {
		d.Observe(f(r))
	}
	return &d
}
