package sched

import "math"

// Locality is the topology-aware placement policy: the load-balancing triad
// of the distributed-FaaS literature (place local, forward to a nearby node
// under pressure, reject past a cap) applied to VCE placement. Items carry a
// HomeSite — the network position of their dependency data — and the policy
// prefers machines that minimize the data-transfer time from that site:
//
//   - An item with a free machine at its home site places there (best
//     speed/load score within the site).
//   - With the home site full, the item waits for a local slot while the
//     site's backlog is at most the threshold (2 items) — betting a short
//     wait beats moving the data.
//   - Past the threshold the item forwards: it takes the free candidate
//     machine whose site has the cheapest transfer cost from home (score
//     breaks ties), accepting the data movement to shed the hot spot.
//   - With no free machine anywhere and the site's backlog past the reject
//     cap (128 items), the item is dropped — removed from both outputs and
//     reported through Dropped, the backpressure signal open workloads need.
//
// Items without a home site (HomeSite == 0), and every item when no topology
// was configured, place greedily like GreedyBestFit — so the policy is
// comparable to the reactive baselines on topology-free scenarios.
type Locality struct {
	// threshold is the per-site backlog tolerated before items forward
	// away from their home site; rejectCap is the per-site backlog beyond
	// which an unplaceable item is dropped instead of queued.
	threshold, rejectCap int

	scratch placeScratch
	siteOf  []int
	cost    [][]float64
	backlog []int
	dropped []Item
}

// NewLocality returns the policy; see NewGreedyBestFit. Its pressure bounds
// forward after a couple of waiters and reject only under pathological
// backlog. Configure the site map with SetTopology.
func NewLocality() *Locality { return &Locality{threshold: 2, rejectCap: 128} }

// Name implements Policy.
func (*Locality) Name() string { return "locality" }

// SetTopology installs the site model: siteOf maps a machine id (its
// position in the snapshot) to a site id, and cost[a][b] estimates the
// seconds needed to move one item's dependency payload from site a to site
// b. Both slices are read, never written, and must outlive subsequent Place
// calls. A nil siteOf reverts to greedy placement.
func (l *Locality) SetTopology(siteOf []int, cost [][]float64) {
	l.siteOf = siteOf
	l.cost = cost
}

// Dropped returns the items the last Place call rejected under backlog
// pressure, in submission order. The slice is valid until the next Place.
func (l *Locality) Dropped() []Item { return l.dropped }

// localityScan accumulates one item's candidate scan without per-item
// closures: the id of the best free machine at the home site, and of the
// best forwarding target (cheapest transfer cost from home, then score;
// first seen wins ties, so candidate order is the final tie-breaker). -1
// means none.
type localityScan struct {
	siteOf    []int
	cost      []float64 // home site's cost row (nil: unknown costs)
	home      int
	local     int
	localBest float64
	fwd       int
	fwdCost   float64
	fwdBest   float64
}

// scan considers every candidate of it, whose data lives at home (cost is
// home's row of the cost matrix). With the round's budget spent it finds
// nothing without resolving a candidate: the caller's wait/drop outcome then
// depends only on its backlog counters.
func (s *localityScan) scan(it *Item, r *roundState, home int, cost []float64) {
	s.home, s.cost = home, cost
	s.local, s.localBest = -1, -1
	s.fwd, s.fwdCost, s.fwdBest = -1, math.MaxFloat64, -1
	if r.free == 0 {
		return
	}
	for _, id := range it.CandidateIDs {
		s.consider(id, r.byID(id))
	}
}

// site resolves a machine id's site, -1 when the id is outside the map.
func (s *localityScan) site(id int) int {
	if id < 0 || id >= len(s.siteOf) {
		return -1
	}
	return s.siteOf[id]
}

func (s *localityScan) consider(id int, ms *MachineState) {
	if ms == nil || ms.Slots <= 0 {
		return
	}
	score := ms.Machine.Speed / (1 + ms.Load)
	site := s.site(id)
	if site == s.home {
		if score > s.localBest {
			s.localBest, s.local = score, id
		}
		return
	}
	c := math.MaxFloat64 // unknown site: a last-resort forwarding target
	if s.cost != nil && site >= 0 && site < len(s.cost) {
		c = s.cost[site]
	}
	if c < s.fwdCost || (c == s.fwdCost && score > s.fwdBest) {
		s.fwdCost, s.fwdBest, s.fwd = c, score, id
	}
}

// Place implements Policy.
func (l *Locality) Place(items []Item, machines []MachineState) ([]Assignment, []Item) {
	round, placed, waiting := newRound(items, machines, &l.scratch)
	l.dropped = l.dropped[:0]

	nsites := len(l.cost)
	if cap(l.backlog) < nsites {
		l.backlog = make([]int, nsites)
	}
	l.backlog = l.backlog[:nsites]
	for i := range l.backlog {
		l.backlog[i] = 0
	}

	// Every item is visited even once nothing is free: the backlog
	// counters that decide drops need the whole queue.
	sc := localityScan{siteOf: l.siteOf}
	for i := range items {
		it := &items[i]
		home := it.HomeSite - 1
		if l.siteOf == nil || home < 0 || home >= nsites {
			// No topology or no affinity: greedy best fit.
			if best := round.pickBest(it, false); best >= 0 {
				placed = append(placed, round.assign(it, best))
			} else {
				waiting = append(waiting, *it)
			}
			continue
		}
		sc.scan(it, &round, home, l.cost[home])
		best := sc.local
		if best < 0 {
			// Home site full: wait a little, forward under pressure.
			l.backlog[home]++
			if l.backlog[home] <= l.threshold {
				waiting = append(waiting, *it)
				continue
			}
			best = sc.fwd
			if best < 0 {
				if l.backlog[home] > l.rejectCap {
					l.dropped = append(l.dropped, *it)
				} else {
					waiting = append(waiting, *it)
				}
				continue
			}
		}
		placed = append(placed, round.assign(it, best))
	}
	return placed, waiting
}
