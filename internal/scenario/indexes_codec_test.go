package scenario

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// sameIndexes compares two Indexes field by field through reflection,
// floats by their bits, so −0 differs from 0 and NaN equals itself.
func sameIndexes(a, b Indexes) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if fa.Kind() == reflect.Float64 {
			if math.Float64bits(fa.Float()) != math.Float64bits(fb.Float()) {
				return false
			}
		} else if fa.Int() != fb.Int() {
			return false
		}
	}
	return true
}

// checkIndexesCodec asserts the codec's contract on one value: the
// compact and indented forms equal encoding/json's and fail exactly when
// it fails, and the compact form plus a newline parses back bit for bit.
func checkIndexesCodec(t *testing.T, x Indexes) {
	t.Helper()
	want, werr := json.Marshal(x)
	got, gerr := AppendIndexes([]byte("prefix"), x)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%+v: json.Marshal error %v, AppendIndexes error %v", x, werr, gerr)
	}
	if gerr != nil {
		if string(got) != "prefix" {
			t.Fatalf("failed append changed its buffer to %q", got)
		}
		return
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("compact form differs from json.Marshal:\n got %s\nwant %s", got[len("prefix"):], want)
	}
	for _, pi := range [][2]string{{"", "  "}, {"        ", "  "}, {">", "\t"}} {
		wantIndent, _ := json.MarshalIndent(x, pi[0], pi[1])
		gotIndent, err := appendIndexes(nil, &x, pi[0], pi[1])
		if err != nil || !bytes.Equal(gotIndent, wantIndent) {
			t.Fatalf("indented form (%q, %q) differs from json.MarshalIndent (err %v):\n got %s\nwant %s",
				pi[0], pi[1], err, gotIndent, wantIndent)
		}
	}
	back, err := ParseIndexes(append(want, '\n'))
	if err != nil {
		t.Fatalf("ParseIndexes refused json.Marshal output %s: %v", want, err)
	}
	if !sameIndexes(back, x) {
		t.Fatalf("round trip drifted:\n got %+v\nwant %+v", back, x)
	}
}

// TestIndexesCodecListsEveryField fails when Indexes gains, loses,
// reorders or retags a field without the codec's list following.
func TestIndexesCodecListsEveryField(t *testing.T) {
	var x Indexes
	fields := x.fields()
	v := reflect.ValueOf(&x).Elem()
	if v.NumField() != len(fields) {
		t.Fatalf("Indexes has %d fields, the codec lists %d", v.NumField(), len(fields))
	}
	for i, fd := range fields {
		sf := v.Type().Field(i)
		if tag := sf.Tag.Get("json"); tag != fd.key {
			t.Errorf("field %d (%s): json tag %q, codec key %q", i, sf.Name, tag, fd.key)
		}
		var p any
		switch sf.Type.Kind() {
		case reflect.Float64:
			p = fd.f
		case reflect.Int64:
			p = fd.i64
		case reflect.Int:
			p = fd.i
		default:
			t.Fatalf("field %s has kind %s, which the codec cannot write", sf.Name, sf.Type.Kind())
		}
		if reflect.ValueOf(p).IsNil() || reflect.ValueOf(p).Pointer() != v.Field(i).Addr().Pointer() {
			t.Errorf("codec entry %q does not point at field %s", fd.key, sf.Name)
		}
	}
}

// TestIndexesCodecPinnedValues pins the float spellings where
// encoding/json switches format or trims an exponent, the extremes of
// both integer types, and the values json.Marshal refuses.
func TestIndexesCodecPinnedValues(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1e-6, 9.99e-7, 1e-7, 1e21, 9.99e20, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, 0.1 + 0.2, 123456789.125, -2.5e-300,
	}
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64}
	for _, f := range floats {
		for _, n := range ints {
			var x Indexes
			for _, fd := range x.fields() {
				switch {
				case fd.f != nil:
					*fd.f = f
				case fd.i64 != nil:
					*fd.i64 = n
				default:
					*fd.i = int(n)
				}
			}
			checkIndexesCodec(t, x)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i, fd := range (&Indexes{}).fields() {
			if fd.f == nil {
				continue
			}
			x := Indexes{Completed: 3}
			*x.fields()[i].f = bad
			if _, err := AppendIndexes(nil, x); err == nil || !strings.Contains(err.Error(), fd.key) {
				t.Errorf("%s = %v: error %v, want one naming the field", fd.key, bad, err)
			}
			checkIndexesCodec(t, x)
		}
	}
}

// TestParseIndexesRefusesNonCanonical: the parser reads only the compact
// form plus its newline, so anything else a store entry could hold reads
// as corrupt.
func TestParseIndexesRefusesNonCanonical(t *testing.T) {
	x := Indexes{MakespanS: 1.5, Completed: 4, Migrations: -2, SlowdownP99: 1e-7}
	good, err := AppendIndexes(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	entry := string(good) + "\n"
	if _, err := ParseIndexes([]byte(entry)); err != nil {
		t.Fatalf("canonical entry refused: %v", err)
	}
	indented, _ := json.MarshalIndent(x, "", "  ")
	for name, in := range map[string]string{
		"empty":             "",
		"torn":              entry[:len(entry)/2],
		"no newline":        string(good),
		"two newlines":      entry + "\n",
		"trailing junk":     entry + "x",
		"indented":          string(indented) + "\n",
		"spaced":            strings.Replace(entry, `"makespan_s":`, `"makespan_s": `, 1),
		"non-shortest":      strings.Replace(entry, `:1.5,`, `:1.50,`, 1),
		"exponent spelling": strings.Replace(entry, `:1e-7,`, `:1e-07,`, 1),
		"int as float":      strings.Replace(entry, `"completed":4`, `"completed":4.0`, 1),
		"negative zero int": strings.Replace(entry, `"failed":0`, `"failed":-0`, 1),
		"plus sign":         strings.Replace(entry, `:1.5,`, `:+1.5,`, 1),
		"empty number":      strings.Replace(entry, `:1.5,`, `:,`, 1),
		"renamed key":       strings.Replace(entry, `"rejected"`, `"refused"`, 1),
		"missing field":     strings.Replace(entry, `"failed":0,`, ``, 1),
		"reordered":         strings.Replace(entry, `"suspensions":0,"failed":0`, `"failed":0,"suspensions":0`, 1),
		"duplicated field":  strings.Replace(entry, `"failed":0,`, `"failed":0,"failed":0,`, 1),
		"extra field":       strings.Replace(entry, "}\n", `,"extra":1}`+"\n", 1),
		"NaN":               strings.Replace(entry, `:1.5,`, `:NaN,`, 1),
		"Inf":               strings.Replace(entry, `:1.5,`, `:Inf,`, 1),
		"int overflow":      strings.Replace(entry, `"failed":0`, `"failed":9223372036854775808`, 1),
	} {
		if in == entry {
			t.Fatalf("%s: the edit did not apply", name)
		}
		if _, err := ParseIndexes([]byte(in)); err == nil {
			t.Errorf("%s: ParseIndexes accepted %q", name, in)
		}
	}
}

// TestReportJSONMatchesEncoder: the hand-laid report.json is the document
// a json.Encoder with SetIndent("", "  ") writes, over the shapes a report
// can take — no engine stamp, nil and empty cells and runs, run numbers,
// and names encoding/json must escape.
func TestReportJSONMatchesEncoder(t *testing.T) {
	spec := goldenSpec()
	idx := Indexes{MakespanS: 12.5, Completed: 3, SlowdownP99: 2e-9, QueueDepthMax: 1e22, Rejected: -1}
	for name, rep := range map[string]*Report{
		"nil spec and cells": {},
		"no cells":           {Engine: EngineVersion, Spec: spec, Cells: []Cell{}},
		"full": {Engine: EngineVersion, Spec: spec, Cells: []Cell{
			{Sched: "greedy-best-fit", Migration: "none", Runs: []Indexes{idx, {}, idx}},
			{Sched: "a<b>&c", Migration: "\u2028\"q\"\\", Runs: []Indexes{idx}, RunNumbers: []int{7}},
			{Sched: "nil runs", Migration: "x"},
			{Sched: "empty runs", Migration: "x", Runs: []Indexes{}, RunNumbers: []int{}},
			{Sched: "shard", Migration: "\xff", Runs: []Indexes{{}, idx}, RunNumbers: []int{2, 5}},
		}},
	} {
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			t.Fatal(err)
		}
		got, err := rep.appendJSON(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: report.json differs from the encoder's:\n got %s\nwant %s", name, clip(got), clip(want.Bytes()))
		}
	}
	bad := &Report{Spec: spec, Cells: []Cell{{Runs: []Indexes{{UtilizationPct: math.NaN()}}}}}
	if _, err := bad.appendJSON(nil); err == nil {
		t.Error("report.json with a NaN index was written")
	}
}

// FuzzIndexesJSON checks the codec against encoding/json for arbitrary
// field values, and that every input the parser accepts is one the codec
// writes: it re-encodes to itself, and encoding/json reads the same value.
func FuzzIndexesJSON(f *testing.F) {
	f.Add(0.0, 1.0, -0.5, 1e-6, 9.99e-7, 1e21, 5e-324, math.MaxFloat64, 0.1, 2.5, 1e-300, 99.99,
		int64(1), int64(-1), int64(math.MaxInt64), 3, 48, []byte(`{"makespan_s":1}`+"\n"))
	canonical, _ := AppendIndexes(nil, Indexes{MakespanS: 3600, Completed: 12, ForwardedPct: 1e-7})
	f.Add(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
		int64(0), int64(0), int64(0), 0, 0, append(canonical, '\n'))
	f.Fuzz(func(t *testing.T, mk, tp, mc, ut, s50, s99, qm, qx, rr, fw, xw, cp float64,
		mig, sus, failed int64, rej, comp int, raw []byte) {
		x := Indexes{
			MakespanS: mk, ThroughputPerH: tp, MeanCompletionS: mc, UtilizationPct: ut,
			Migrations: mig, Suspensions: sus, Failed: failed, Rejected: rej, Completed: comp,
			SlowdownP50: s50, SlowdownP99: s99, QueueDepthMean: qm, QueueDepthMax: qx,
			RejectRatePct: rr, ForwardedPct: fw, XferWaitS: xw, CriticalPathStretch: cp,
		}
		checkIndexesCodec(t, x)
		got, err := ParseIndexes(raw)
		if err != nil {
			return
		}
		again, err := AppendIndexes(nil, got)
		if err != nil || !bytes.Equal(append(again, '\n'), raw) {
			t.Fatalf("accepted %q, which re-encodes to %q (err %v)", raw, again, err)
		}
		var viaJSON Indexes
		if err := json.Unmarshal(raw, &viaJSON); err != nil || !sameIndexes(viaJSON, got) {
			t.Fatalf("accepted %q, which encoding/json reads as %+v (err %v), not %+v", raw, viaJSON, err, got)
		}
	})
}
