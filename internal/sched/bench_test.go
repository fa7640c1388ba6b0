package sched

import (
	"fmt"
	"testing"
)

// BenchmarkPlaceWaiting prices one pick in the scenario engine's steady
// state: each round one item arrives whose candidates are the whole fleet,
// the round places it, and before the next round the caller re-derives the
// one entry the placement changed and lists it. Every machine has a free
// slot, so a greedy pick reads a score per machine and a locality pick one
// per machine at the item's home site (a third of the fleet). ns/op is
// ns per pick.
func BenchmarkPlaceWaiting(b *testing.B) {
	for _, n := range []int{192, 10_000} {
		ids := make([]int, n)
		siteOf := make([]int, n)
		template := make([]MachineState, n)
		for i := range template {
			ids[i] = i
			siteOf[i] = i * 3 / n // three sites, each a block of the fleet
			template[i] = ws(fmt.Sprintf("m%d", i), float64(1+i%4), float64(i%5)/4, 1)
		}
		cost := [][]float64{{0, 5.4, 5.4}, {5.4, 0, 5.4}, {5.4, 5.4, 0}}
		loc := NewLocality()
		loc.SetTopology(siteOf, cost)
		for _, p := range []Policy{NewGreedyBestFit(), loc} {
			b.Run(fmt.Sprintf("%s/machines=%d", p.Name(), n), func(b *testing.B) {
				states := append([]MachineState(nil), template...)
				p.Reset()
				var changed []int
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Enqueue(Item{Ref: i, CandidateIDs: ids, Work: 30, HomeSite: 1 + i%3})
					placed := p.PlaceWaiting(states, n, changed)
					if len(placed) != 1 {
						b.Fatalf("round %d placed %v, want one item", i, placed)
					}
					m := placed[0].Machine
					states[m] = template[m]
					changed = append(changed[:0], m)
				}
			})
		}
	}
}
