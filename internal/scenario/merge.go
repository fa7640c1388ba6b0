package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
)

// ReportFile is the name of the serialized-report artifact WriteArtifacts
// emits alongside the rendered tables; it is the artifact MergeReports and
// `vcebench merge` consume.
const ReportFile = "report.json"

// LoadReport reads a serialized Report (a report.json artifact) from path.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("scenario: parsing report %s: %w", path, err)
	}
	if rep.Spec == nil {
		return nil, fmt.Errorf("scenario: report %s has no spec", path)
	}
	if err := rep.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: report %s: %w", path, err)
	}
	return &rep, nil
}

// MergeReports deterministically combines shard reports of one sweep into
// the report a single-process run of the full grid would have produced —
// byte-identically, because the runs fill one (cell, run) grid that the
// executor's own assembleReport turns into the report. Inputs must carry
// the same engine stamp, share an identical spec (defaults applied) and
// cell structure, and no (cell, run) position may appear in more than one
// input: overlap means the shards were produced with inconsistent
// partitions, and picking a winner silently would mask that. Merging a
// subset of the shards is fine — the result is simply partial where no
// shard contributed a run.
func MergeReports(reports ...*Report) (*Report, error) {
	if len(reports) == 0 {
		return nil, fmt.Errorf("scenario: merge: no reports")
	}
	ref := reports[0]
	refSpec, err := json.Marshal(ref.Spec)
	if err != nil {
		return nil, fmt.Errorf("scenario: merge: %w", err)
	}
	for i, rep := range reports {
		// Indexes produced by different simulation semantics are different
		// experiments, however equal the specs look. An unstamped report
		// predates the stamp itself, so it agrees with no stamped one.
		if rep.Engine == "" {
			return nil, fmt.Errorf("scenario: merge: report %d carries no engine stamp — it predates engine stamping, so its results cannot be one sweep with any other", i)
		}
		if rep.Engine != ref.Engine {
			return nil, fmt.Errorf("scenario: merge: report %d was produced by engine %q, report 0 by %q — results from different engine versions cannot be one sweep",
				i, rep.Engine, ref.Engine)
		}
		// Duplicate (sched, migration) cells inside one report would let the
		// per-cell merge below silently conflate unrelated run sets.
		seen := make(map[string]bool, len(rep.Cells))
		for _, c := range rep.Cells {
			key := c.Sched + "/" + c.Migration
			if seen[key] {
				return nil, fmt.Errorf("scenario: merge: report %d contains cell %s twice", i, key)
			}
			seen[key] = true
		}
	}
	for i, rep := range reports[1:] {
		spec, err := json.Marshal(rep.Spec)
		if err != nil {
			return nil, fmt.Errorf("scenario: merge: %w", err)
		}
		if !bytes.Equal(refSpec, spec) {
			return nil, fmt.Errorf("scenario: merge: report %d ran spec %q which differs from report 0's %q — shards of one sweep must share the exact spec",
				i+1, rep.Spec.Name, ref.Spec.Name)
		}
		if len(rep.Cells) != len(ref.Cells) {
			return nil, fmt.Errorf("scenario: merge: report %d has %d cells, report 0 has %d", i+1, len(rep.Cells), len(ref.Cells))
		}
		for c := range rep.Cells {
			if rep.Cells[c].Sched != ref.Cells[c].Sched || rep.Cells[c].Migration != ref.Cells[c].Migration {
				return nil, fmt.Errorf("scenario: merge: report %d cell %d is %s/%s, report 0 has %s/%s",
					i+1, c, rep.Cells[c].Sched, rep.Cells[c].Migration, ref.Cells[c].Sched, ref.Cells[c].Migration)
			}
		}
	}

	runs := ref.Spec.Runs
	insts := make([]Instance, len(ref.Cells))
	got := make([][]*Indexes, len(ref.Cells))
	for c, cell := range ref.Cells {
		insts[c] = Instance{Spec: ref.Spec, Sched: cell.Sched, Migration: cell.Migration}
		got[c] = make([]*Indexes, runs)
	}
	for i, rep := range reports {
		for c := range rep.Cells {
			cell := &rep.Cells[c]
			for k := range cell.Runs {
				run := cell.runNumber(k)
				if run < 0 || run >= runs {
					return nil, fmt.Errorf("scenario: merge: report %d carries run %d of cell %s/%s, outside the spec's %d runs",
						i, run, cell.Sched, cell.Migration, runs)
				}
				if got[c][run] != nil {
					return nil, fmt.Errorf("scenario: merge: run %d of cell %s/%s appears in more than one report — overlapping shards",
						run, cell.Sched, cell.Migration)
				}
				got[c][run] = &cell.Runs[k]
			}
		}
	}
	out := assembleReport(ref.Spec, insts, got)
	out.Engine = ref.Engine
	return out, nil
}
