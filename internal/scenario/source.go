package scenario

import (
	"cmp"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vce/internal/rng"
)

// arrival is one arrival kind: the kind names an entry of the arrivals
// table, which Validate, the engine and the generators all read.
//
// Kinds come in two execution modes. A closed kind — batch, poisson — has its
// arrival instants materialized into the run's generated world up front,
// alongside the work and constraint draws. An open-loop (streaming) kind —
// diurnal, trace — is pumped lazily during the simulation by a
// self-scheduling arrival event: its task records are recycled through the
// task pool at completion, so a cell can absorb millions of arrivals in
// memory independent of the task count.
type arrival struct {
	// streaming reports whether arrivals are generated lazily by the
	// engine's arrival pump (open-loop) rather than materialized into the
	// cached world (closed).
	streaming bool
	// validate checks the arrival parameters. It sees the raw spec (defaults
	// not yet applied); specName locates error messages.
	validate func(specName string, a ArrivalSpec) error
	// cursor returns the arrival sequence as a pull iterator drawing from r
	// (the run's derived "arrivals" stream). Instants are non-decreasing;
	// ok=false ends the sequence (an infinite kind never returns false — the
	// engine stops at the horizon or the task cap).
	cursor func(a ArrivalSpec, r *rng.Source) ArrivalCursor
}

// ArrivalCursor yields successive arrival instants.
type ArrivalCursor func() (at time.Duration, ok bool)

// arrivals is the arrival axis, in the order error messages and docs list
// the kinds.
var arrivals = []option[arrival]{
	// batch: everything at t=0 (the closed-workload default).
	{"batch", arrival{
		validate: func(string, ArrivalSpec) error { return nil },
		cursor: func(ArrivalSpec, *rng.Source) ArrivalCursor {
			return func() (time.Duration, bool) { return 0, true }
		},
	}},
	{"poisson", arrival{validate: validatePoisson, cursor: poissonCursor}},
	{"diurnal", arrival{streaming: true, validate: validateDiurnal, cursor: diurnalCursor}},
	{"trace", arrival{streaming: true, validate: validateTrace, cursor: traceCursor}},
}

// ArrivalKinds lists the known arrival kinds in table order.
func ArrivalKinds() []string { return optionNames(arrivals) }

// source resolves a's kind against the arrivals table; "" means the batch
// default.
func (a ArrivalSpec) source() (arrival, bool) {
	return lookup(arrivals, cmp.Or(a.Kind, "batch"))
}

// Streaming reports whether a's kind is open-loop: pumped during the
// simulation from a bounded task pool instead of materialized into the
// world. An unknown kind reports false.
func (a ArrivalSpec) Streaming() bool {
	src, _ := a.source()
	return src.streaming
}

// Cursor returns a's arrival instants, drawn from r. a's kind must be one
// of ArrivalKinds.
func (a ArrivalSpec) Cursor(r *rng.Source) ArrivalCursor {
	src, _ := a.source()
	return src.cursor(a, r)
}

// ---- poisson: homogeneous open arrivals, materialized eagerly ----

func validatePoisson(name string, a ArrivalSpec) error {
	if a.RatePerS <= 0 {
		return fmt.Errorf("scenario: %s: poisson arrivals need positive rate_per_s", name)
	}
	return nil
}

func poissonCursor(a ArrivalSpec, r *rng.Source) ArrivalCursor {
	t := 0.0
	return func() (time.Duration, bool) {
		t += r.ExpFloat64() / a.RatePerS
		return time.Duration(t * float64(time.Second)), true
	}
}

// ---- diurnal: rate-modulated poisson (open-loop, streaming) ----

func validateDiurnal(name string, a ArrivalSpec) error {
	if a.RatePerS <= 0 {
		return fmt.Errorf("scenario: %s: diurnal arrivals need positive rate_per_s", name)
	}
	if a.Amplitude < 0 || a.Amplitude > 1 {
		return fmt.Errorf("scenario: %s: diurnal amplitude %v outside [0, 1]", name, a.Amplitude)
	}
	if a.PeriodS < 0 || a.PhaseS < 0 {
		return fmt.Errorf("scenario: %s: negative diurnal period_s or phase_s", name)
	}
	return nil
}

// diurnalCursor shapes arrivals as an inhomogeneous Poisson process with a
// sinusoidal rate, the standard stand-in for day/night user traffic:
//
//	rate(t) = rate_per_s · (1 + amplitude · sin(2π · (t + phase_s)/period_s))
//
// Sampling uses Lewis-Shedler thinning against the peak rate: candidate
// gaps are exponential at rate_per_s·(1+amplitude) and each candidate is
// accepted with probability rate(t)/peak. Both draws come from the one
// "arrivals" stream, so the sequence is deterministic in (spec, run).
func diurnalCursor(a ArrivalSpec, r *rng.Source) ArrivalCursor {
	period := a.PeriodS
	if period == 0 {
		period = defaultDiurnalPeriodS
	}
	peak := a.RatePerS * (1 + a.Amplitude)
	t := 0.0
	return func() (time.Duration, bool) {
		for {
			t += r.ExpFloat64() / peak
			rate := a.RatePerS * (1 + a.Amplitude*math.Sin(2*math.Pi*(t+a.PhaseS)/period))
			// Strict inequality: Float64 draws from [0, 1), so u·peak <= rate
			// would accept candidates at instants where rate(t) == 0 (the
			// trough of an amplitude-1 cycle) whenever u draws exactly zero.
			// Lewis-Shedler thinning accepts with probability rate/peak, which
			// is 0 there — a zero-rate instant must never produce an arrival.
			if r.Float64()*peak < rate {
				return time.Duration(t * float64(time.Second)), true
			}
		}
	}
}

// defaultDiurnalPeriodS is one day: "diurnal" without an explicit period
// models daily user traffic.
const defaultDiurnalPeriodS = 86400

// ---- trace: replay a compact arrival file (open-loop, streaming) ----

func validateTrace(name string, a ArrivalSpec) error {
	if len(a.TraceS) == 0 {
		return fmt.Errorf("scenario: %s: trace arrivals need trace_path or trace_s", name)
	}
	sum := 0.0
	for i, gap := range a.TraceS {
		if gap < 0 || math.IsNaN(gap) || math.IsInf(gap, 0) {
			return fmt.Errorf("scenario: %s: trace_s[%d]: gap must be a finite non-negative number, got %v", name, i, gap)
		}
		sum += gap
	}
	if a.Repeat && sum == 0 {
		return fmt.Errorf("scenario: %s: repeating trace_s needs a positive total gap (all-zero gaps would arrive forever at t=0)", name)
	}
	return nil
}

// traceCursor replays recorded traffic: the trace is a sequence of
// inter-arrival gaps in seconds, inlined in the spec (trace_s; scenario.Load
// reads a trace_path file into it, so artifacts and cache keys are
// self-contained — see inlineTrace). With repeat the gap sequence tiles until
// the horizon or the task cap.
func traceCursor(a ArrivalSpec, _ *rng.Source) ArrivalCursor {
	gaps := a.TraceS
	i, t := 0, 0.0
	return func() (time.Duration, bool) {
		if i >= len(gaps) {
			if !a.Repeat || len(gaps) == 0 {
				return 0, false
			}
			i = 0
		}
		t += gaps[i]
		i++
		return time.Duration(t * float64(time.Second)), true
	}
}

// inlineTrace resolves a trace_path relative to dir and inlines the parsed
// gaps into TraceS, clearing the path: the spec becomes self-contained, so
// spec.json artifacts reproduce and CellKey hashes trace *content*, not a
// filename. A spec that already carries trace_s is left alone.
func (s *Spec) inlineTrace(dir string) error {
	a := &s.Workload.Arrivals
	if a.Kind != "trace" || a.TracePath == "" {
		return nil
	}
	if len(a.TraceS) > 0 {
		// Inline gaps win; drop the path so the spec stays content-addressed.
		a.TracePath = ""
		return nil
	}
	path := a.TracePath
	if !filepath.IsAbs(path) {
		path = filepath.Join(dir, path)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("scenario: %s: trace_path: %w", s.Name, err)
	}
	gaps, err := parseTrace(data)
	if err != nil {
		return fmt.Errorf("scenario: %s: trace_path %s: %w", s.Name, a.TracePath, err)
	}
	a.TraceS = gaps
	a.TracePath = ""
	return nil
}

// parseTrace reads the compact arrival file format: one inter-arrival gap
// in seconds per line; blank lines and #-comments are skipped. Files saved
// with CRLF line endings parse identically to LF ones: the carriage return
// is stripped explicitly before any content check.
func parseTrace(data []byte) ([]float64, error) {
	var gaps []float64
	for ln, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSuffix(line, "\r")
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		gap, err := strconv.ParseFloat(line, 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		gaps = append(gaps, gap)
	}
	if len(gaps) == 0 {
		return nil, fmt.Errorf("no arrival gaps in trace")
	}
	return gaps, nil
}
