package vtime

import (
	"testing"
	"time"
)

// BenchmarkKernel measures the raw event-queue hot path: scheduling and
// draining batches of events through the 4-ary indexed heap. sink defeats
// dead-code elimination; the callback is hoisted so the loop measures queue
// cost, not closure allocation.
var sink int

func BenchmarkKernel(b *testing.B) {
	b.Run("schedule+drain/10k", func(b *testing.B) {
		fn := func() { sink++ }
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := NewSim()
			for j := 0; j < 10000; j++ {
				s.At(time.Duration((j*2654435761)%100000)*time.Microsecond, fn)
			}
			s.Run()
		}
		b.ReportMetric(float64(b.N)*10000/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("steady-state/replace", func(b *testing.B) {
		// The cluster simulator's dominant pattern: each fired event
		// schedules its successor against a backlog of pending peers.
		s := NewSim()
		fn := func() { sink++ }
		for j := 0; j < 1024; j++ {
			s.At(time.Duration(j)*time.Millisecond, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.After(1500*time.Millisecond, fn)
			s.Step()
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/sec")
	})
	b.Run("cancel-heavy", func(b *testing.B) {
		// Timer-wheel style churn: most scheduled work is cancelled before
		// it fires (failure detectors, superseded completions).
		s := NewSim()
		fn := func() { sink++ }
		for j := 0; j < 1024; j++ {
			s.At(time.Duration(j)*time.Millisecond, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev := s.After(time.Hour, fn)
			if !s.Cancel(ev) {
				b.Fatal("cancel failed")
			}
			s.After(1500*time.Millisecond, fn)
			s.Step()
		}
	})
}
