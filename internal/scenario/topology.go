package scenario

import (
	"time"

	"vce/internal/arch"
	"vce/internal/netsim"
)

// siteTopology is the realized per-site network model of one generated
// fleet: the spec's class sites mapped onto concrete machines, and the
// effective link for every site pair. It replaces the single uniform link of
// flat scenarios — the engine installs its resolver on the cluster's netsim
// model, so every transfer (migration images, DAG data staging) is priced by
// the actual pair of positions, in O(sites²) memory instead of a link per
// machine pair.
type siteTopology struct {
	// sites names each site id, in first-declaration order over the
	// machine classes.
	sites []string
	// siteOf maps a machine's dense index (sim.Machine.Index) to its site.
	siteOf []int
	// links is the effective site-pair link matrix (symmetric; the diagonal
	// is the intra-site link).
	links [][]netsim.Link
	// nameSite resolves a machine name to its site for the netsim resolver.
	nameSite map[string]int
}

// topologyActive reports whether the machine set declares a usable site
// model: every class positioned and at least two distinct sites. A spec with
// machines.topology set always satisfies this (Validate enforces it); class
// sites alone also activate — the links then all equal the flat default, but
// the locality policy and the affinity indexes still see positions.
func topologyActive(ms *MachineSetSpec) bool {
	seen := map[string]bool{}
	for _, cl := range ms.Classes {
		if cl.Site == "" {
			return false
		}
		seen[cl.Site] = true
	}
	return len(seen) >= 2
}

// overrideLink returns base with any non-zero override fields applied
// (milliseconds and MiB/s, the spec's units).
func overrideLink(base netsim.Link, latencyMs, bandwidthMiBps float64) netsim.Link {
	if latencyMs != 0 {
		base.Latency = time.Duration(latencyMs * float64(time.Millisecond))
	}
	if bandwidthMiBps != 0 {
		base.Bandwidth = bandwidthMiBps * (1 << 20)
	}
	return base
}

// buildTopology realizes the machine set's site model over a generated
// fleet. specs must be in registration order (machine index i is specs[i]).
// It returns nil when the spec declares no usable site model — the flat
// single-link path then stays bit-exact with pre-topology engines.
func buildTopology(ms *MachineSetSpec, specs []arch.Machine) *siteTopology {
	if !topologyActive(ms) {
		return nil
	}
	t := &siteTopology{nameSite: make(map[string]int, len(specs))}
	siteID := make(map[string]int)
	classSite := make([]int, len(ms.Classes))
	for ci, cl := range ms.Classes {
		id, ok := siteID[cl.Site]
		if !ok {
			id = len(t.sites)
			siteID[cl.Site] = id
			t.sites = append(t.sites, cl.Site)
		}
		classSite[ci] = id
	}
	// The fleet is class-major (fleetShape), so the site of
	// machine index i is the site of the class block containing i.
	mi := 0
	for ci, cl := range ms.Classes {
		for j := 0; j < cl.Count; j++ {
			t.siteOf = append(t.siteOf, classSite[ci])
			if mi < len(specs) {
				t.nameSite[specs[mi].Name] = classSite[ci]
			}
			mi++
		}
	}

	base := netsim.Link{
		Latency:   time.Duration(ms.LatencyMs * float64(time.Millisecond)),
		Bandwidth: *ms.BandwidthMiBps * (1 << 20),
	}
	intra, inter := base, base
	var sp TopologySpec
	if ms.Topology != nil {
		sp = *ms.Topology
	}
	intra = overrideLink(intra, sp.IntraLatencyMs, sp.IntraBandwidthMiBps)
	inter = overrideLink(inter, sp.InterLatencyMs, sp.InterBandwidthMiBps)
	n := len(t.sites)
	t.links = make([][]netsim.Link, n)
	for a := range t.links {
		t.links[a] = make([]netsim.Link, n)
		for b := range t.links[a] {
			if a == b {
				t.links[a][b] = intra
			} else {
				t.links[a][b] = inter
			}
		}
	}
	for _, l := range sp.Links {
		a, b := siteID[l.A], siteID[l.B]
		base := inter
		if a == b {
			base = intra
		}
		eff := overrideLink(base, l.LatencyMs, l.BandwidthMiBps)
		t.links[a][b], t.links[b][a] = eff, eff
	}
	return t
}

// resolver adapts the topology to netsim.Model.SetResolver: the link between
// two machines is their sites' pair link. Unknown names fall through to the
// model's default link.
func (t *siteTopology) resolver() func(a, b string) (netsim.Link, bool) {
	return func(a, b string) (netsim.Link, bool) {
		sa, ok := t.nameSite[a]
		if !ok {
			return netsim.Link{}, false
		}
		sb, ok := t.nameSite[b]
		if !ok {
			return netsim.Link{}, false
		}
		return t.links[sa][sb], true
	}
}

// costMatrix prices moving one payload of the given size between every site
// pair, in seconds — the locality policy's forwarding-cost input. The
// diagonal is the intra-site transfer time (data staged between co-located
// machines still crosses the site link; only the same machine is free).
func (t *siteTopology) costMatrix(payload int64) [][]float64 {
	n := len(t.sites)
	cost := make([][]float64, n)
	for a := range cost {
		cost[a] = make([]float64, n)
		for b := range cost[a] {
			l := t.links[a][b]
			d := l.Latency.Seconds()
			if payload > 0 && l.Bandwidth > 0 {
				d += float64(payload) / l.Bandwidth
			}
			cost[a][b] = d
		}
	}
	return cost
}
