package scenario

import (
	"bytes"
	"errors"
	"math"
	"strconv"
)

// The Indexes codec writes and reads one run's indexes without reflection.
// Its output is byte-identical to encoding/json's (json.Marshal for the
// compact form, json.MarshalIndent for the indented one), so a store entry
// or a report.json written here is the document encoding/json would have
// written, and encoding/json still reads every one of them back.

// indexField is one field of Indexes under its json key. Exactly one of
// the pointers is set, by the field's type.
type indexField struct {
	key string
	f   *float64
	i64 *int64
	i   *int
}

// fields lists x's fields in struct order — the order encoding/json writes
// them — under their json keys. It is the codec's one list of fields; the
// codec tests check it against the struct by reflection.
func (x *Indexes) fields() [17]indexField {
	return [...]indexField{
		{key: "makespan_s", f: &x.MakespanS},
		{key: "throughput_per_h", f: &x.ThroughputPerH},
		{key: "mean_completion_s", f: &x.MeanCompletionS},
		{key: "utilization_pct", f: &x.UtilizationPct},
		{key: "migrations", i64: &x.Migrations},
		{key: "suspensions", i64: &x.Suspensions},
		{key: "failed", i64: &x.Failed},
		{key: "rejected", i: &x.Rejected},
		{key: "completed", i: &x.Completed},
		{key: "slowdown_p50", f: &x.SlowdownP50},
		{key: "slowdown_p99", f: &x.SlowdownP99},
		{key: "queue_depth_mean", f: &x.QueueDepthMean},
		{key: "queue_depth_max", f: &x.QueueDepthMax},
		{key: "reject_rate_pct", f: &x.RejectRatePct},
		{key: "forwarded_pct", f: &x.ForwardedPct},
		{key: "xfer_wait_s", f: &x.XferWaitS},
		{key: "critical_path_stretch", f: &x.CriticalPathStretch},
	}
}

// AppendIndexes appends x to b as json.Marshal(x) writes it. Like
// json.Marshal it refuses NaN and ±Inf, and then returns b unchanged.
func AppendIndexes(b []byte, x Indexes) ([]byte, error) {
	return appendIndexes(b, &x, "", "")
}

// appendIndexes appends x compact when indent is "", and otherwise as
// json.MarshalIndent(x, prefix, indent) writes it: the opening brace takes
// no prefix, every later line does.
func appendIndexes(b []byte, x *Indexes, prefix, indent string) ([]byte, error) {
	out := append(b, '{')
	for i, fd := range x.fields() {
		if i > 0 {
			out = append(out, ',')
		}
		if indent != "" {
			out = append(append(append(out, '\n'), prefix...), indent...)
		}
		out = append(append(append(out, '"'), fd.key...), '"', ':')
		if indent != "" {
			out = append(out, ' ')
		}
		switch {
		case fd.f != nil:
			if math.IsNaN(*fd.f) || math.IsInf(*fd.f, 0) {
				return b, errors.New("scenario: index " + fd.key + ": unsupported value " + strconv.FormatFloat(*fd.f, 'g', -1, 64))
			}
			out = appendJSONFloat(out, *fd.f)
		case fd.i64 != nil:
			out = strconv.AppendInt(out, *fd.i64, 10)
		default:
			out = strconv.AppendInt(out, int64(*fd.i), 10)
		}
	}
	if indent != "" {
		out = append(append(out, '\n'), prefix...)
	}
	return append(out, '}'), nil
}

// appendJSONFloat formats a finite float64 as encoding/json does: the
// shortest representation that reads back exactly, in 'f' form unless the
// magnitude is below 1e-6 or at least 1e21, and with a one-digit negative
// exponent written without its leading zero (e-7, not e-07).
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// errIndexesForm is what ParseIndexes returns for any input that is not
// exactly AppendIndexes' output plus a newline.
var errIndexesForm = errors.New("scenario: indexes entry is not in the canonical compact form")

// ParseIndexes reads one store entry: exactly what AppendIndexes writes,
// followed by a newline. Every field must be present, under its key, in
// struct order, and every number must be written as AppendIndexes writes
// it, so an accepted entry re-encodes to its own bytes and its floats come
// back bit for bit. Anything else — torn, reordered, reformatted or
// hand-edited — is refused.
func ParseIndexes(data []byte) (Indexes, error) {
	entry, ok := bytes.CutSuffix(data, []byte("\n"))
	if !ok {
		return Indexes{}, errIndexesForm
	}
	// Each number is read leniently, from the ':' before it to the ',' or
	// '}' after it. Re-encoding the result and comparing it with the entry
	// then admits only the canonical document: its keys, their order and
	// the one spelling of each number (strconv also reads 1e5 or 0.50).
	var x Indexes
	rest := entry
	for _, fd := range x.fields() {
		colon := bytes.IndexByte(rest, ':')
		if colon < 0 {
			return Indexes{}, errIndexesForm
		}
		rest = rest[colon+1:]
		end := 0
		for end < len(rest) && rest[end] != ',' && rest[end] != '}' {
			end++
		}
		num := string(rest[:end])
		rest = rest[end:]
		var err error
		switch {
		case fd.f != nil:
			*fd.f, err = strconv.ParseFloat(num, 64)
		case fd.i64 != nil:
			*fd.i64, err = strconv.ParseInt(num, 10, 64)
		default:
			var v int64
			v, err = strconv.ParseInt(num, 10, strconv.IntSize)
			*fd.i = int(v)
		}
		if err != nil {
			return Indexes{}, errIndexesForm
		}
	}
	var buf [768]byte
	enc, err := appendIndexes(buf[:0], &x, "", "")
	if err != nil || !bytes.Equal(enc, entry) {
		return Indexes{}, errIndexesForm
	}
	return x, nil
}
