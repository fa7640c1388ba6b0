package transport

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadFrame feeds arbitrary bytes to readFrame, the parser of every byte
// a TCP endpoint takes off the network, and round-trips a fuzzed message
// through writeFrame. readFrame must never panic, must refuse a frame that
// declares more than maxFrame bytes, must parse only what writeFrame would
// have written, and must return exactly the From, Kind and Payload that
// writeFrame framed. The seed corpus runs in plain go test.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := writeFrame(&valid, Message{From: "127.0.0.1:7000", Kind: "isis.cast", Payload: []byte("body")}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes(), "exm.exec", "127.0.0.1:7001", []byte("payload"))
	f.Add(valid.Bytes()[:7], "", "", []byte(nil))                         // truncated
	f.Add([]byte{0, 0, 0, 4, 0xff, 0xff, 0, 0}, "k", "a", []byte{0})      // kind longer than the body
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0xff, 0xff}, "k", "a", []byte{0})      // from longer than the body
	f.Add([]byte{0x04, 0, 0, 1, 0, 0, 0, 0}, "isis.view", "m0", []byte{}) // declares maxFrame+1
	f.Add([]byte{0, 0, 0, 1, 0}, "", "", []byte(nil))                     // shorter than a kind length
	f.Add([]byte{}, "", "", []byte(nil))

	f.Fuzz(func(t *testing.T, raw []byte, kind, from string, payload []byte) {
		msg, err := readFrame(bytes.NewReader(raw))
		if len(raw) >= 4 && binary.BigEndian.Uint32(raw) > maxFrame && err == nil {
			t.Fatalf("frame declaring %d bytes accepted (limit %d)", binary.BigEndian.Uint32(raw), maxFrame)
		}
		if err == nil {
			// A parsed frame is a prefix of raw that writeFrame reproduces
			// byte for byte.
			var again bytes.Buffer
			if err := writeFrame(&again, msg); err != nil {
				t.Fatalf("parsed %+v does not re-frame: %v", msg, err)
			}
			if !bytes.HasPrefix(raw, again.Bytes()) {
				t.Fatalf("re-framed %x is not a prefix of the input %x", again.Bytes(), raw)
			}
		}

		in := Message{From: Addr(from), Kind: kind, Payload: payload}
		var buf bytes.Buffer
		if err := writeFrame(&buf, in); err != nil {
			if len(kind) <= 0xffff && len(from) <= 0xffff {
				t.Fatalf("writeFrame refused %d-byte kind and %d-byte from: %v", len(kind), len(from), err)
			}
			return
		}
		out, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("readFrame of a written frame: %v", err)
		}
		if out.From != in.From || out.Kind != in.Kind || !bytes.Equal(out.Payload, in.Payload) {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
		if buf.Len() != 0 {
			t.Fatalf("readFrame left %d bytes of its own frame", buf.Len())
		}
	})
}
