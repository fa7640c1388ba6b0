package channel

import (
	"fmt"
	"testing"
)

func BenchmarkDirectedSend(b *testing.B) {
	h := NewHub()
	c := h.Channel("bench")
	a, _ := c.CreatePort("a")
	dst, _ := c.CreatePort("b")
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.SendTo("b", payload); err != nil {
			b.Fatal(err)
		}
		if _, ok := dst.Recv(); !ok {
			b.Fatal("lost message")
		}
	}
}

func BenchmarkGroupSendFanout8(b *testing.B) {
	h := NewHub()
	c := h.Channel("bench")
	sender, _ := c.CreatePort("sender")
	ports := make([]*Port, 8)
	for i := range ports {
		ports[i], _ = c.CreatePort(PortID(fmt.Sprintf("p%d", i)))
	}
	payload := make([]byte, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sender.Send(payload); err != nil {
			b.Fatal(err)
		}
		for _, p := range ports {
			if _, ok := p.Recv(); !ok {
				b.Fatal("lost fanout message")
			}
		}
	}
}
