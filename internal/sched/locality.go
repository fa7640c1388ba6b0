package sched

import (
	"math"
	"slices"
)

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

	queue
	siteOf  []int
	cost    [][]float64
	backlog []int
	dropped []Item
}

// NewLocality returns the policy with an empty queue. Its pressure bounds
// forward after a couple of waiters and reject only under pathological
// backlog. Configure the site map with SetTopology.
func NewLocality() *Locality { return &Locality{threshold: 2, rejectCap: 128} }

// Name implements Policy.
func (*Locality) Name() string { return "locality" }

// SetTopology installs the site model: siteOf maps a machine id (its
// position in the snapshot) to a site id, and cost[a][b] estimates the
// seconds needed to move one item's dependency payload from site a to site
// b, one row and one column per site. Both slices are read, never written,
// and must outlive subsequent rounds. A nil siteOf reverts to greedy
// placement.
func (l *Locality) SetTopology(siteOf []int, cost [][]float64) {
	l.siteOf = siteOf
	l.cost = cost
	for s := range l.sets {
		l.sets[s].sites.built = false
	}
}

// Dropped returns the items the last round rejected under backlog
// pressure, in arrival order; they left the queue. The slice is valid until
// the next round.
func (l *Locality) Dropped() []Item { return l.dropped }

// siteSplit is one candidate set grouped by site: ids[start[g]:start[g+1]]
// are the set's machines at site g, in candidate order, and the last group
// holds the ids with no site in the cost matrix. pos[k] is ids[k]'s
// position in the set. A duplicate id lands in its first copy's group,
// after it, so it never beats that copy.
type siteSplit struct {
	ids, pos, start []int
	built           bool
}

// reuse returns an unbuilt split over sp's storage.
func (sp siteSplit) reuse() siteSplit {
	return siteSplit{ids: sp.ids[:0], pos: sp.pos[:0], start: sp.start[:0]}
}

// group returns site g's members.
func (sp *siteSplit) group(g int) []int { return sp.ids[sp.start[g]:sp.start[g+1]] }

// site resolves a machine id to its split group: its site, or nsites for
// an id with no site in the cost matrix.
func (l *Locality) site(id, nsites int) int {
	if id < 0 || id >= len(l.siteOf) || l.siteOf[id] < 0 || l.siteOf[id] >= nsites {
		return nsites
	}
	return l.siteOf[id]
}

// split returns set f's site split, building it on first use after the set
// opened or the topology changed.
func (l *Locality) split(f *fifo) *siteSplit {
	sp := &f.sites
	if sp.built {
		return sp
	}
	nsites := len(l.cost)
	sp.ids = slices.Grow(sp.ids[:0], len(f.ids))
	sp.pos = slices.Grow(sp.pos[:0], len(f.ids))
	sp.start = slices.Grow(sp.start[:0], nsites+2)
	for g := 0; g <= nsites; g++ {
		sp.start = append(sp.start, len(sp.ids))
		for p, id := range f.ids {
			if l.site(id, nsites) == g {
				sp.ids = append(sp.ids, id)
				sp.pos = append(sp.pos, p)
			}
		}
	}
	sp.start = append(sp.start, len(sp.ids))
	sp.built = true
	return sp
}

// forward returns the forwarding target of an item whose data lives at
// home, with home's machines full: of the other groups' best free machines,
// the one at the site cheapest to move the data to, then the best score,
// then the earliest candidate — what one pass over the set in candidate
// order keeps when it replaces its pick only on a cheaper site or, at the
// same cost, a strictly better score. A site with no cost (the last group)
// costs math.MaxFloat64 and then needs a score above -1. -1 means none.
func (l *Locality) forward(r *roundState, sp *siteSplit, home int) int {
	if r.free == 0 {
		return -1
	}
	row := l.cost[home]
	fwd, fwdCost, fwdBest, fwdPos := -1, math.MaxFloat64, -1.0, 0
	for g := 0; g+1 < len(sp.start); g++ {
		if g == home {
			continue
		}
		k, best := -1, math.Inf(-1)
		for j := sp.start[g]; j < sp.start[g+1]; j++ {
			if id := sp.ids[j]; uint(id) < uint(len(r.keys)) && r.keys[id] > best {
				k, best = j, r.keys[id]
			}
		}
		if k < 0 {
			continue
		}
		c := math.MaxFloat64 // the last group has no site in the matrix
		if g < len(l.cost) && g < len(row) {
			c = row[g]
		}
		if c < fwdCost || c == fwdCost && (best > fwdBest || best == fwdBest && fwd >= 0 && sp.pos[k] < fwdPos) {
			fwd, fwdCost, fwdBest, fwdPos = sp.ids[k], c, best, sp.pos[k]
		}
	}
	return fwd
}

// PlaceWaiting implements Policy. Without a topology every item places
// greedily, which is the queue's own round. Otherwise every item is
// visited, even once nothing is free: the backlog counters that decide
// drops need the whole queue, and rejectCap bounds it per site. So the
// round walks every set in place, the sets merged in arrival order: placed
// and dropped items leave, and the items still waiting close up at the
// front of their set's buffer in the order they came, without leaving the
// queue.
func (l *Locality) PlaceWaiting(machines []MachineState, free int, changed []int) []Assignment {
	l.dropped = l.dropped[:0]
	if l.siteOf == nil {
		return l.queue.PlaceWaiting(machines, free, changed)
	}
	r := l.round(machines, free, changed)
	l.placed = l.placed[:0]
	nsites := len(l.cost)
	l.backlog = slices.Grow(l.backlog[:0], nsites)[:nsites]
	clear(l.backlog)

	for s := l.next(); s >= 0; s = l.next() {
		f := &l.sets[s]
		it := &f.buf[f.head].Item
		f.head++
		home := it.HomeSite - 1
		best, drop := -1, false
		if home < 0 || home >= nsites {
			// No affinity: greedy best fit.
			best = r.pickBest(it.CandidateIDs, nil)
		} else if best = r.pickBest(l.split(f).group(home), nil); best < 0 {
			// Home site full: wait a little, forward under pressure.
			l.backlog[home]++
			if l.backlog[home] > l.threshold {
				best = l.forward(&r, &f.sites, home)
				drop = best < 0 && l.backlog[home] > l.rejectCap
			}
		}
		switch {
		case best >= 0:
			l.placed = append(l.placed, r.assign(it, best))
		case drop:
			l.dropped = append(l.dropped, *it)
		default:
			if f.kept < f.head-1 {
				f.buf[f.kept] = f.buf[f.head-1]
			}
			f.kept++
			continue
		}
		l.n--
	}
	for s := range l.sets {
		f := &l.sets[s]
		f.buf, f.head, f.kept = f.buf[:f.kept], 0, 0
	}
	return l.placed
}

// Place implements Policy.
func (l *Locality) Place(items []Item, machines []MachineState) ([]Assignment, []Item) {
	return l.PlaceWaiting(machines, l.load(items, machines), nil), l.drain()
}
