package exm

import (
	"testing"
	"testing/quick"
)

func TestWireRoundTrips(t *testing.T) {
	req := requestMsg{ReqID: 7, App: "snow", Task: "predictor", Program: "/p.vce", Need: 3, ReplyTo: "addr"}
	data, err := encode(req)
	if err != nil {
		t.Fatal(err)
	}
	var got requestMsg
	if err := decode(data, &got); err != nil {
		t.Fatal(err)
	}
	if got != req {
		t.Fatalf("round trip: %+v vs %+v", got, req)
	}
}

func TestWireRejectsGarbage(t *testing.T) {
	var msg allocMsg
	if err := decode([]byte("not gob"), &msg); err == nil {
		t.Fatal("garbage decoded")
	}
	if err := decode(nil, &msg); err == nil {
		t.Fatal("empty payload decoded")
	}
}

func TestWirePropertyExecMsg(t *testing.T) {
	f := func(app, task, prog string, inst, copyIdx uint8, files []string) bool {
		in := execMsg{App: app, Task: task, Program: prog,
			Instance: int(inst), Copy: int(copyIdx), Files: files}
		data, err := encode(in)
		if err != nil {
			return false
		}
		var out execMsg
		if err := decode(data, &out); err != nil {
			return false
		}
		if out.App != in.App || out.Task != in.Task || out.Instance != in.Instance || out.Copy != in.Copy {
			return false
		}
		if len(out.Files) != len(in.Files) {
			return false
		}
		for i := range in.Files {
			if out.Files[i] != in.Files[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDoneAndKillRoundTrip(t *testing.T) {
	d := doneMsg{App: "a", Task: "t", Instance: 2, Copy: 1, Machine: "m", Err: "boom"}
	data, _ := encode(d)
	var gotD doneMsg
	if err := decode(data, &gotD); err != nil || gotD != d {
		t.Fatalf("done round trip: %+v %v", gotD, err)
	}
	k := killMsg{App: "a", Task: "t", Instance: -1}
	data, _ = encode(k)
	var gotK killMsg
	if err := decode(data, &gotK); err != nil || gotK != k {
		t.Fatalf("kill round trip: %+v %v", gotK, err)
	}
}
