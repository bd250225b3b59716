package evolve

import (
	"sort"

	"repro/internal/graph"
)

// TouchedTails returns the distinct tails (edge sources) of every edge a
// delta could have changed, sorted ascending: for each head in
// Delta.Heads — a node whose in-edge list changed in any way, including
// policy-driven reweighs — the in-neighbors of that head in the old
// snapshot and in the new one. An edge insert contributes its tail via
// the new snapshot, a delete via the old, a reweigh via both.
//
// This is the forward-score counterpart of affectedSets: any per-node
// statistic computed from a node's out-edges (the tiered fast scorer's
// hop/degree scores, out-degree summaries, and the like) is stale after
// the delta exactly at these tails — plus, for two-hop statistics, at
// the new snapshot's in-neighbors of these tails, which callers expand
// themselves.
func TouchedTails(oldG, newG *graph.Graph, d Delta) []uint32 {
	set := make(map[uint32]struct{}, len(d.Heads)*2)
	collect := func(g *graph.Graph, h uint32) {
		if g == nil || int(h) >= g.N() {
			return
		}
		in, _ := g.InNeighbors(h)
		for _, t := range in {
			set[t] = struct{}{}
		}
	}
	for _, h := range d.Heads {
		collect(oldG, h)
		collect(newG, h)
	}
	tails := make([]uint32, 0, len(set))
	for t := range set {
		tails = append(tails, t)
	}
	sort.Slice(tails, func(i, j int) bool { return tails[i] < tails[j] })
	return tails
}
