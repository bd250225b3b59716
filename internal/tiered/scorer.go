// Package tiered is the latency-tiered answering subsystem: it gives
// every query a latency budget and serves it from the cheapest tier that
// fits.
//
// Three pieces cooperate (DESIGN.md §11):
//
//   - Scorer is the millisecond fast tier: a QuickIM-style two-hop
//     expected-influence score per node, precomputed per dataset snapshot
//     and maintained incrementally through the evolving-graph layer, with
//     a discounted top-k selection that answers in microseconds once warm.
//     Fast-tier answers are heuristic — no approximation guarantee.
//   - Planner decides, per request, which tier serves it: the finest
//     RIS ε on a fixed ladder whose predicted latency fits the remaining
//     budget, the fast tier when no RIS rung fits, or a shed when neither
//     satisfies the request's confidence floor. RIS latency is predicted
//     from per-(dataset, model) observations normalized by the sampling
//     effort λ(n, k, ε, ℓ), so one warm observation calibrates every
//     rung of the ladder.
//   - Gate bounds in-flight query work: budgeted queries are rejected
//     immediately when the server is full (their budget would expire in
//     the queue), unbudgeted queries wait.
//
// The ε ladder is what keeps escalation sound rather than heuristic: the
// server's RR-collection store is prefix-deterministic per (dataset,
// model, ε), so a budgeted query escalated to ladder rung ε returns
// bit-identical seeds to an unbudgeted query at that same ε — the budget
// moves a query along the ladder, never onto different answers.
package tiered

import (
	"sort"
	"sync"

	"repro/internal/evolve"
	"repro/internal/graph"
)

// Scorer is the fast tier: per-node two-hop expected-influence scores
// over one immutable graph snapshot. Build cost is O(n + m·d̄) once per
// dataset; Select cost is O((k + touched) log n) thanks to the
// pre-sorted score index, independent of how many nodes the graph has.
//
// A Scorer is immutable after Build/Refresh; concurrent Selects are safe.
// Refresh mutates and must be externally serialized against Select (the
// server guards each scorer with an RWMutex).
type Scorer struct {
	g     *graph.Graph // the snapshot the scores reflect
	score []float64    // score[u] = 1 + Σ_v p(uv)·(1 + Σ_w p(vw))
	// sorted holds all node ids ordered by (score desc, id asc); Select
	// walks it lazily so a query touches only the top of the order.
	sorted []uint32
}

// scoreNode computes the two-hop score of u on g: the expected number of
// nodes activated counting u itself, its direct activations, and their
// direct activations, treating edge weights as independent probabilities
// (QuickIM's hop-count argument truncated at two hops). The computation
// is per-node and order-deterministic, which is what lets an incremental
// Refresh reproduce a full rebuild bit for bit.
func scoreNode(g *graph.Graph, u uint32) float64 {
	s := 1.0
	nbrs, w := g.OutNeighbors(u)
	for i, v := range nbrs {
		one := 1.0
		vn, vw := g.OutNeighbors(v)
		for j := range vn {
			one += float64(vw[j])
		}
		s += float64(w[i]) * one
	}
	return s
}

// NewScorer builds the fast-tier scores for one graph snapshot.
func NewScorer(g *graph.Graph) *Scorer {
	n := g.N()
	s := &Scorer{g: g, score: make([]float64, n)}
	for u := 0; u < n; u++ {
		s.score[u] = scoreNode(g, uint32(u))
	}
	s.resort()
	return s
}

// resort rebuilds the score-descending node order.
func (s *Scorer) resort() {
	n := len(s.score)
	if cap(s.sorted) < n {
		s.sorted = make([]uint32, n)
	}
	s.sorted = s.sorted[:n]
	for i := range s.sorted {
		s.sorted[i] = uint32(i)
	}
	sort.Slice(s.sorted, func(i, j int) bool {
		a, b := s.sorted[i], s.sorted[j]
		if s.score[a] != s.score[b] {
			return s.score[a] > s.score[b]
		}
		return a < b
	})
}

// N returns the node count the scores cover.
func (s *Scorer) N() int { return len(s.score) }

// MemoryBytes returns the scorer's own heap footprint (score array plus
// sorted index, by capacity) for the capacity ledger. The underlying
// graph snapshot is owned — and accounted — by the evolve layer.
func (s *Scorer) MemoryBytes() int64 {
	if s == nil {
		return 0
	}
	return int64(cap(s.score))*8 + int64(cap(s.sorted))*4
}

// Refresh advances the scores from the snapshot they were built on to
// newG, rescoring only the nodes delta could have affected, and returns
// how many nodes were rescored. Score(u) reads u's out-edges and the
// out-edges of u's out-neighbors, so an edge change at head h (whose
// in-edge list — including policy-driven reweighs — is what delta.Heads
// records) affects exactly the changed edges' tails T plus the new
// snapshot's in-neighbors of T. Rescoring runs the same per-node
// computation as a full build, so a refreshed Scorer is bit-identical to
// NewScorer(newG).
func (s *Scorer) Refresh(newG *graph.Graph, delta evolve.Delta) int {
	tails := evolve.TouchedTails(s.g, newG, delta)
	affected := make(map[uint32]struct{}, len(tails)*2)
	for _, t := range tails {
		affected[t] = struct{}{}
		in, _ := newG.InNeighbors(t)
		for _, x := range in {
			affected[x] = struct{}{}
		}
	}
	n := newG.N()
	for u := delta.NBefore; u < n; u++ {
		affected[uint32(u)] = struct{}{}
	}
	if len(s.score) < n {
		grown := make([]float64, n)
		copy(grown, s.score)
		s.score = grown
	}
	for u := range affected {
		s.score[u] = scoreNode(newG, u)
	}
	s.g = newG
	s.resort()
	return len(affected)
}

// scoreHeap is a max-heap of (value, node) over parallel slices, ordered
// by value descending with ties toward the lower node id. The order is
// strict for distinct nodes and Select never holds a node twice, so the
// pop sequence does not depend on the heap's internal layout.
type scoreHeap struct {
	val  []float64
	node []uint32
}

func (h *scoreHeap) less(i, j int) bool {
	if h.val[i] != h.val[j] {
		return h.val[i] > h.val[j]
	}
	return h.node[i] < h.node[j]
}

func (h *scoreHeap) swap(i, j int) {
	h.val[i], h.val[j] = h.val[j], h.val[i]
	h.node[i], h.node[j] = h.node[j], h.node[i]
}

func (h *scoreHeap) push(v float64, u uint32) {
	h.val = append(h.val, v)
	h.node = append(h.node, u)
	for j := len(h.node) - 1; j > 0; {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		j = i
	}
}

func (h *scoreHeap) pop() (float64, uint32) {
	n := len(h.node) - 1
	h.swap(0, n)
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if r := j + 1; r < n && h.less(r, j) {
			j = r
		}
		if !h.less(j, i) {
			break
		}
		h.swap(i, j)
		i = j
	}
	v, u := h.val[n], h.node[n]
	h.val, h.node = h.val[:n], h.node[:n]
	return v, u
}

// selectScratch is one Select call's working state, recycled through
// selectPool. Between calls has and picked are all-false over their full
// capacity and the heap is empty: a call resets exactly the entries it
// set (touched, the picked seeds and the in-range excludes) instead of
// clearing O(n) memory, and overlay needs no reset because has guards it.
type selectScratch struct {
	overlay []float64 // overlay[u]: u's discounted score, valid where has[u]
	has     []bool
	picked  []bool // picked or excluded
	touched []uint32
	heap    scoreHeap
}

var selectPool sync.Pool

// getSelectScratch returns a scratch covering n nodes, from the pool when
// one there is large enough (scorers of every dataset share the pool).
func getSelectScratch(n int) *selectScratch {
	if v, ok := selectPool.Get().(*selectScratch); ok && cap(v.has) >= n {
		v.overlay, v.has, v.picked = v.overlay[:n], v.has[:n], v.picked[:n]
		return v
	}
	return &selectScratch{overlay: make([]float64, n), has: make([]bool, n), picked: make([]bool, n)}
}

// putSelectScratch restores the pool invariant and returns sc to the
// pool; seeds and exclude are the picked marks the call set.
func putSelectScratch(sc *selectScratch, seeds, exclude []uint32) {
	for _, u := range sc.touched {
		sc.has[u] = false
	}
	for _, u := range seeds {
		sc.picked[u] = false
	}
	for _, u := range exclude {
		if int(u) < len(sc.picked) {
			sc.picked[u] = false
		}
	}
	sc.touched = sc.touched[:0]
	sc.heap.val, sc.heap.node = sc.heap.val[:0], sc.heap.node[:0]
	selectPool.Put(sc)
}

// Select picks k seeds greedily by discounted score: each pick
// multiplies every out-neighbor's remaining score by (1 − p(pick, v)),
// the probability the pick does not already activate v — the
// degree-discount idea applied to the two-hop scores. force seeds are
// returned first (consuming none of k) with their discounts applied;
// exclude nodes are never picked. The second return is the heuristic
// spread estimate: the sum of the discounted scores at pick time,
// clamped to the node count.
//
// Selection is deterministic (score-descending, id-ascending
// tie-break) and read-only on the Scorer: per-query discounts live in a
// private pooled scratch, so concurrent Selects do not interfere and a
// warm call allocates only the returned slice.
func (s *Scorer) Select(k int, force, exclude []uint32) ([]uint32, float64) {
	n := len(s.score)
	sc := getSelectScratch(n)
	seeds := make([]uint32, 0, k+len(force))
	defer func() { putSelectScratch(sc, seeds, exclude) }()
	cur := func(u uint32) float64 {
		if sc.has[u] {
			return sc.overlay[u]
		}
		return s.score[u]
	}
	discount := func(u uint32) {
		nbrs, w := s.g.OutNeighbors(u)
		for i, v := range nbrs {
			if !sc.has[v] {
				sc.has[v] = true
				sc.overlay[v] = s.score[v]
				sc.touched = append(sc.touched, v)
			}
			sc.overlay[v] *= 1 - float64(w[i])
		}
	}
	est := 0.0
	for _, u := range exclude {
		if int(u) < n {
			sc.picked[u] = true
		}
	}
	for _, u := range force {
		if int(u) >= n || sc.picked[u] {
			continue
		}
		sc.picked[u] = true
		seeds = append(seeds, u)
		est += cur(u)
		discount(u)
	}

	h := &sc.heap
	cursor := 0
	for taken := 0; taken < k && len(seeds) < n; {
		// Keep the frontier invariant: the heap top dominates every node
		// not yet pushed, because un-pushed nodes sit at their base score
		// and discounts only lower scores. Only then is popping the top
		// the true greedy pick over all n nodes.
		for cursor < n && (len(h.node) == 0 || h.val[0] < s.score[s.sorted[cursor]]) {
			u := s.sorted[cursor]
			cursor++
			h.push(cur(u), u)
		}
		if len(h.node) == 0 {
			break
		}
		v, u := h.pop()
		if v != cur(u) {
			// Stale entry: the node was discounted after being pushed.
			h.push(cur(u), u)
			continue
		}
		if sc.picked[u] {
			continue
		}
		sc.picked[u] = true
		seeds = append(seeds, u)
		est += v
		taken++
		discount(u)
	}
	if est > float64(n) {
		est = float64(n)
	}
	return seeds, est
}
