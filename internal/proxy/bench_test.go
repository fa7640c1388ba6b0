package proxy

import (
	"testing"

	"vce/internal/channel"
)

func BenchmarkMarshalSmallArgs(b *testing.B) {
	args := []interface{}{int64(42), "method-arg", 3.14}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := MarshalValues(args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalVector1K(b *testing.B) {
	vec := make([]float64, 1024)
	args := []interface{}{vec}
	b.ReportAllocs()
	b.SetBytes(8 * 1024)
	for i := 0; i < b.N; i++ {
		if _, err := MarshalValues(args); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalVector1K(b *testing.B) {
	data, err := MarshalValues([]interface{}{make([]float64, 1024)})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := UnmarshalValues(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProxyCallRoundTrip(b *testing.B) {
	hub := channel.NewHub()
	ch := hub.Channel("rpc")
	sp, _ := ch.CreatePort("server")
	cp, _ := ch.CreatePort("client")
	srv := NewServer(sp)
	srv.Register("echo", func(args []interface{}) ([]interface{}, error) { return args, nil })
	go srv.Serve()
	cli := NewClient(cp, "server")
	arg := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cli.Call("echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}
