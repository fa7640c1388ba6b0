package netsim

import (
	"testing"
	"time"
)

func TestTransferTimeComponents(t *testing.T) {
	m := New(Link{Latency: 10 * time.Millisecond, Bandwidth: 1000}) // 1000 B/s
	d, err := m.TransferTime("a", "b", 500)
	if err != nil {
		t.Fatal(err)
	}
	want := 10*time.Millisecond + 500*time.Millisecond
	if d != want {
		t.Fatalf("transfer = %v, want %v", d, want)
	}
}

func TestTransferZeroBytesIsLatencyOnly(t *testing.T) {
	m := New(Link{Latency: 5 * time.Millisecond, Bandwidth: 100})
	d, err := m.TransferTime("a", "b", 0)
	if err != nil || d != 5*time.Millisecond {
		t.Fatalf("transfer = %v, %v", d, err)
	}
}

func TestLocalTransferFree(t *testing.T) {
	m := New(Link{Latency: time.Second, Bandwidth: 1})
	d, err := m.TransferTime("a", "a", 1<<30)
	if err != nil || d != 0 {
		t.Fatalf("local transfer = %v, %v; want 0", d, err)
	}
}

// TestResolverOverridesDefault: a resolver's link wins for the pairs it
// answers, a (Link, false) answer falls through to the default, and a nil
// resolver restores the default everywhere.
func TestResolverOverridesDefault(t *testing.T) {
	def := Link{Latency: time.Millisecond, Bandwidth: 1e6}
	fast := Link{Latency: time.Microsecond, Bandwidth: 1e9}
	m := New(def)
	m.SetResolver(func(a, b string) (Link, bool) { return fast, a == "a" && b == "b" })
	if got := m.LinkBetween("a", "b"); got != fast {
		t.Fatalf("link a->b = %+v, want the resolver's %+v", got, fast)
	}
	if got := m.LinkBetween("a", "c"); got != def {
		t.Fatalf("unresolved link a->c = %+v, want the default", got)
	}
	m.SetResolver(nil)
	if got := m.LinkBetween("a", "b"); got != def {
		t.Fatalf("link a->b after removing the resolver = %+v, want the default", got)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	m := New(Link{Latency: time.Millisecond, Bandwidth: 1e6})
	m.Partition("a", "b")
	if m.Reachable("a", "b") || m.Reachable("b", "a") {
		t.Fatal("partitioned pair still reachable")
	}
	if _, err := m.TransferTime("a", "b", 10); err == nil {
		t.Fatal("transfer across partition succeeded")
	}
	if !m.Reachable("a", "c") {
		t.Fatal("partition leaked to other pairs")
	}
	m.Heal("b", "a")
	if !m.Reachable("a", "b") {
		t.Fatal("heal did not restore link")
	}
}

func TestZeroBandwidthMeansLatencyOnly(t *testing.T) {
	m := New(Link{Latency: 3 * time.Millisecond})
	d, err := m.TransferTime("a", "b", 1<<20)
	if err != nil || d != 3*time.Millisecond {
		t.Fatalf("transfer = %v, %v", d, err)
	}
}

func TestLAN1994Scale(t *testing.T) {
	m := LAN1994()
	// 1 MiB over 10 Mb/s ~ 0.84 s; sanity-check the order of magnitude.
	d, err := m.TransferTime("a", "b", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if d < 500*time.Millisecond || d > 2*time.Second {
		t.Fatalf("1 MiB on LAN1994 took %v, out of plausible range", d)
	}
}

func TestConcurrentModelAccess(t *testing.T) {
	m := LAN1994()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			m.Partition("a", "b")
			m.Heal("a", "b")
		}
	}()
	for i := 0; i < 500; i++ {
		m.Reachable("a", "b")
		_, _ = m.TransferTime("a", "c", 100)
	}
	<-done
}
