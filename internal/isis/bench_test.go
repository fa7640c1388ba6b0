package isis

import (
	"testing"
	"time"

	"vce/internal/transport"
)

// newBenchGroup builds a group without the testing.T cleanup helpers.
func newBenchGroup(b *testing.B, n int) []*Process {
	b.Helper()
	net := transport.NewInMem()
	cfg := func(name string) Config {
		return Config{Name: name, HeartbeatEvery: 250 * time.Millisecond,
			FailAfter: 5 * time.Second, ReplyTimeout: 5 * time.Second}
	}
	founder, err := Found(net, "bench", cfg("b0"))
	if err != nil {
		b.Fatal(err)
	}
	procs := []*Process{founder}
	for i := 1; i < n; i++ {
		p, err := Join(net, "bench", founder.Addr(), cfg("b"+string(rune('0'+i))))
		if err != nil {
			b.Fatal(err)
		}
		procs = append(procs, p)
	}
	for {
		ok := true
		for _, p := range procs {
			if p.View().Size() != n {
				ok = false
			}
		}
		if ok {
			break
		}
		time.Sleep(time.Millisecond)
	}
	return procs
}

// BenchmarkCastAllReplies measures one bcast/reply round over 8 members —
// the inner loop of the Figure 3 bidding protocol.
func BenchmarkCastAllReplies(b *testing.B) {
	procs := newBenchGroup(b, 8)
	defer func() {
		for _, p := range procs {
			p.Stop()
		}
	}()
	for _, p := range procs {
		p.HandleCast("bid", func(transport.Addr, []byte) ([]byte, bool) {
			return []byte("load"), true
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replies, err := procs[0].Cast("bid", nil, AllReplies)
		if err != nil {
			b.Fatal(err)
		}
		if len(replies) != 8 {
			b.Fatalf("replies = %d", len(replies))
		}
	}
}
