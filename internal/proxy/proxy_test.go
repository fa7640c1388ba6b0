package proxy

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"vce/internal/channel"
)

func TestMarshalRoundTripAllTypes(t *testing.T) {
	in := []interface{}{
		nil,
		true,
		false,
		int64(-42),
		3.14159,
		"hello world",
		[]byte{0, 1, 2, 255},
		[]float64{1.5, -2.5, math.Inf(1)},
		[]int64{9, -9, 0},
		[]string{"a", "", "c"},
	}
	data, err := MarshalValues(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalValues(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in: %#v\nout: %#v", in, out)
	}
}

func TestMarshalWidensInt(t *testing.T) {
	data, err := MarshalValues([]interface{}{7})
	if err != nil {
		t.Fatal(err)
	}
	out, err := UnmarshalValues(data)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != int64(7) {
		t.Fatalf("int widening: %#v", out[0])
	}
}

func TestMarshalRejectsUnsupported(t *testing.T) {
	if _, err := MarshalValues([]interface{}{struct{}{}}); err == nil {
		t.Fatal("struct marshalled")
	}
	if _, err := MarshalValues([]interface{}{map[string]int{}}); err == nil {
		t.Fatal("map marshalled")
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{0, 0},
		{0, 0, 0, 1},                  // claims one value, no body
		{0, 0, 0, 1, 0xEE},            // unknown tag
		{0, 0, 0, 1, tagString, 0, 0}, // truncated string header
		{0, 0, 0, 255, tagNil},        // count exceeds payload
	}
	for i, c := range cases {
		if _, err := UnmarshalValues(c); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestUnmarshalRejectsTrailingBytes(t *testing.T) {
	data, _ := MarshalValues([]interface{}{int64(1)})
	data = append(data, 0xFF)
	if _, err := UnmarshalValues(data); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestMarshalIsBigEndian(t *testing.T) {
	// The architecture-independent form must be network byte order: the
	// encoded int64 1 ends with 0x01 in the last position.
	data, _ := MarshalValues([]interface{}{int64(1)})
	want := []byte{0, 0, 0, 1, tagInt, 0, 0, 0, 0, 0, 0, 0, 1}
	if !bytes.Equal(data, want) {
		t.Fatalf("encoding = %x, want %x", data, want)
	}
}

func TestMarshalPropertyRoundTrip(t *testing.T) {
	f := func(b bool, n int64, fl float64, s string, raw []byte, ns []int64) bool {
		if math.IsNaN(fl) {
			return true // NaN != NaN; reflect.DeepEqual would fail
		}
		in := []interface{}{b, n, fl, s, raw, ns}
		if raw == nil {
			in[4] = []byte{}
		}
		if ns == nil {
			in[5] = []int64{}
		}
		data, err := MarshalValues(in)
		if err != nil {
			return false
		}
		out, err := UnmarshalValues(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// newProxyPair wires a client and server proxy over a real VCE channel.
func newProxyPair(t *testing.T) (*Client, *Server) {
	t.Helper()
	hub := channel.NewHub()
	ch := hub.Channel("rpc")
	sp, err := ch.CreatePort("server")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ch.CreatePort("client")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sp)
	go srv.Serve()
	cli := NewClient(cp, "server")
	t.Cleanup(func() {
		hub.Destroy("rpc")
	})
	return cli, srv
}

func TestCallRoundTrip(t *testing.T) {
	cli, srv := newProxyPair(t)
	srv.Register("add", func(args []interface{}) ([]interface{}, error) {
		a := args[0].(int64)
		b := args[1].(int64)
		return []interface{}{a + b}, nil
	})
	res, err := cli.Call("add", int64(2), int64(40))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0] != int64(42) {
		t.Fatalf("results = %#v", res)
	}
}

func TestCallUnknownMethod(t *testing.T) {
	cli, _ := newProxyPair(t)
	if _, err := cli.Call("missing"); err == nil {
		t.Fatal("unknown method call succeeded")
	}
}

func TestCallServerError(t *testing.T) {
	cli, srv := newProxyPair(t)
	srv.Register("fail", func([]interface{}) ([]interface{}, error) {
		return nil, fmt.Errorf("object says no")
	})
	_, err := cli.Call("fail")
	if err == nil || err.Error() != "object says no" {
		t.Fatalf("err = %v", err)
	}
	total, failed := srv.Calls()
	if total != 1 || failed != 1 {
		t.Fatalf("calls = %d/%d", total, failed)
	}
}

func TestCallVectorService(t *testing.T) {
	cli, srv := newProxyPair(t)
	srv.Register("dot", func(args []interface{}) ([]interface{}, error) {
		x := args[0].([]float64)
		y := args[1].([]float64)
		if len(x) != len(y) {
			return nil, fmt.Errorf("length mismatch")
		}
		var sum float64
		for i := range x {
			sum += x[i] * y[i]
		}
		return []interface{}{sum}, nil
	})
	res, err := cli.Call("dot", []float64{1, 2, 3}, []float64{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].(float64) != 32 {
		t.Fatalf("dot = %v", res[0])
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	cli, srv := newProxyPair(t)
	srv.Register("echo", func(args []interface{}) ([]interface{}, error) {
		return args, nil
	})
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := cli.Call("echo", int64(i))
			if err != nil {
				errs <- err
				return
			}
			if res[0] != int64(i) {
				errs <- fmt.Errorf("call %d got %v", i, res[0])
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestTrafficAccounting(t *testing.T) {
	cli, srv := newProxyPair(t)
	srv.Register("echo", func(args []interface{}) ([]interface{}, error) {
		return args, nil
	})
	if _, err := cli.Call("echo", make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	out, in := cli.Traffic()
	if out < 1000 || in < 1000 {
		t.Fatalf("traffic = %d out, %d in", out, in)
	}
}
