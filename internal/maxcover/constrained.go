package maxcover

import (
	"container/heap"

	"repro/internal/diffusion"
)

// Constraints configures GreedyConstrained, the selection entry point of
// the constrained-query subsystem (internal/query). The zero value (with K
// set) is plain cardinality greedy.
type Constraints struct {
	// K is the number of nodes to pick beyond Force. In budget mode it is
	// still a cap: at most K picks, subject to Budget.
	K int
	// Budget, when positive, switches to budgeted selection: picked nodes
	// must have total cost at most Budget. The pick rule runs both the
	// cost-ratio greedy (marginal/cost) and the cost-oblivious greedy
	// (marginal, skipping unaffordable nodes) and keeps whichever covers
	// more — the standard trick that restores a constant-factor guarantee
	// the ratio rule alone lacks (Khuller–Moss–Naor).
	Budget float64
	// Costs[v] is the cost of seeding v; nil means unit costs. Ignored
	// unless Budget > 0; costs must be positive (internal/query validates).
	Costs []float64
	// Force are warm-start seeds: they are selected first, in order, their
	// coverage pre-subtracted, and they consume neither K nor Budget.
	// Duplicates and out-of-range ids are dropped.
	Force []uint32
	// Exclude are nodes that must never be picked (forced nodes win over
	// exclusion). Out-of-range ids are ignored.
	Exclude []uint32
	// Workers is an execution knob, not a constraint: the parallelism of
	// GreedyConstrained's per-call index build (≤ 0 = all cores,
	// 1 = serial; GreedyIndex, handed a built index, ignores it).
	// Selection results are byte-identical for every value.
	Workers int
}

// constrained reports whether selection needs the lazy greedy at all;
// plain (K)-cardinality selection without force/exclude/budget uses the
// faster bucket greedy.
func (c *Constraints) constrained() bool {
	return c.Budget > 0 || len(c.Force) > 0 || len(c.Exclude) > 0
}

// GreedyConstrained selects seeds maximizing RR-set coverage under the
// given constraints. The returned Seeds begin with the (deduplicated)
// forced nodes in their given order — Result.Forced counts them — followed
// by up to K greedy picks. In cardinality mode, picks are padded with
// zero-marginal non-excluded nodes (lowest id first) so that exactly K
// picks are returned whenever enough eligible nodes exist; in budget mode
// selection stops at zero marginal gain or when nothing else is
// affordable. Ties break toward the lower node id, so the result is
// deterministic for a fixed collection.
//
// It builds an index over col for this call alone, in pooled scratch,
// and runs GreedyIndex; callers selecting repeatedly over one collection
// keep a NewIndex instead.
func GreedyConstrained(n int, col *diffusion.RRCollection, c Constraints) Result {
	if n <= 0 {
		return Result{Seeds: []uint32{}, Marginals: []int64{}}
	}
	idx := buildIndex(n, col, c.Workers, true)
	defer idx.release()
	return GreedyIndex(idx, col, c)
}

// greedyConstrained is GreedyIndex's constrained half: forced seeds,
// exclusions and budgets, over the θ = col.Count() prefix of s's index.
// Budget mode runs on an eager selection (GreedyIndex asks newSelection
// for one): its gain/cost ranking makes stale pops frequent enough that
// a posting walk per re-check costs more than decrementing members.
func (s *selection) greedyConstrained(c Constraints) Result {
	n := s.idx.N()
	k := clampK(c.K, n)
	res := Result{
		Seeds:     make([]uint32, 0, k+len(c.Force)),
		Marginals: make([]int64, 0, k+len(c.Force)),
	}
	if n == 0 {
		return res
	}
	excluded := seedMarks.get(n)
	for _, v := range c.Exclude {
		if int(v) < n {
			excluded[v] = true
		}
	}
	defer func() {
		// Sparse reset: the seedMarks pool keeps every slice all-false.
		for _, v := range c.Exclude {
			if int(v) < n {
				excluded[v] = false
			}
		}
		seedMarks.put(excluded)
	}()

	// Warm-start: cover the forced nodes first, recording their marginal
	// coverage in order, so the greedy picks below optimize genuinely
	// marginal gain over what the caller has already seeded.
	for _, v := range c.Force {
		if int(v) >= n || s.selected[v] {
			continue
		}
		s.selected[v] = true
		gain := s.gain(v)
		s.cover(v)
		res.Seeds = append(res.Seeds, v)
		res.Marginals = append(res.Marginals, gain)
		res.Covered += gain
		res.Forced++
	}

	if k == 0 {
		return res
	}
	if c.Budget <= 0 {
		s.lazyGreedy(excluded, k, nil, 0, false, &res)
		// Pad with zero-marginal eligible nodes, as the bucket greedy
		// does, so cardinality queries keep the "exactly k picks" contract.
		for v := 0; v < n && len(res.Seeds)-res.Forced < k; v++ {
			if !s.selected[v] && !excluded[v] {
				s.selected[v] = true
				res.Seeds = append(res.Seeds, uint32(v))
				res.Marginals = append(res.Marginals, 0)
			}
		}
		return res
	}

	// Budget mode: run ratio and uniform passes from the post-forced
	// state, keep the better cover.
	ratio := res
	ratio.Seeds = append([]uint32(nil), res.Seeds...)
	ratio.Marginals = append([]int64(nil), res.Marginals...)
	rs := s.fork()
	rs.lazyGreedy(excluded, k, c.Costs, c.Budget, true, &ratio)
	rs.release()

	uniform := res
	uniform.Seeds = append([]uint32(nil), res.Seeds...)
	uniform.Marginals = append([]int64(nil), res.Marginals...)
	s.lazyGreedy(excluded, k, c.Costs, c.Budget, false, &uniform)

	if ratio.Covered >= uniform.Covered {
		return ratio
	}
	return uniform
}

// lazyGreedy is a CELF-style lazy greedy: a max-heap of (stale) marginal
// gains, re-evaluated on pop. budget <= 0 means cardinality-only; costs
// nil means unit costs. It appends picks to res and updates Covered/Cost.
//
// With budget > 0, rankByRatio selects the ranking score — gain/cost (the
// ratio pass) or raw gain (the cost-oblivious pass); both respect
// affordability: a popped node whose cost exceeds the remaining budget is
// dropped from candidacy and the scan continues.
//
// The heap starts from the cached counts, not recounted ones. After forced
// picks they are upper bounds of the true gains, which is all CELF needs:
// every entry's score bounds its node's true score, so a top entry whose
// gain re-checks unchanged is the true maximum under (score desc, id asc)
// however stale the entries below it are.
func (s *selection) lazyGreedy(excluded []bool, k int, costs []float64, budget float64, rankByRatio bool, res *Result) {
	n := s.idx.N()
	costOf := func(v uint32) float64 {
		if costs == nil {
			return 1
		}
		return costs[v]
	}
	scoreOf := func(v uint32, gain int64) float64 {
		if rankByRatio {
			return float64(gain) / costOf(v)
		}
		return float64(gain)
	}
	h := s.heap[:0]
	for v := 0; v < n; v++ {
		if s.selected[v] || excluded[v] || s.count[v] == 0 {
			continue
		}
		h = append(h, candidate{node: uint32(v), gain: s.count[v], score: scoreOf(uint32(v), s.count[v])})
	}
	heap.Init(&h)
	remaining := budget
	picks := 0
	for picks < k && h.Len() > 0 {
		top := h[0]
		if g := s.gain(top.node); g != top.gain {
			// Stale: re-score with the current gain and reposition.
			top.gain = g
			top.score = scoreOf(top.node, top.gain)
			h[0] = top
			heap.Fix(&h, 0)
			continue
		}
		heap.Pop(&h)
		if top.gain == 0 {
			break // submodularity: nothing below has gain either
		}
		if budget > 0 && costOf(top.node) > remaining {
			continue // unaffordable now, and costs never shrink: drop it
		}
		v := top.node
		s.selected[v] = true
		res.Seeds = append(res.Seeds, v)
		res.Marginals = append(res.Marginals, top.gain)
		res.Covered += top.gain
		if budget > 0 {
			remaining -= costOf(v)
			res.Cost += costOf(v)
		}
		picks++
		s.cover(v)
	}
	s.heap = h[:0]
}

// candidate is one heap entry of the lazy greedy.
type candidate struct {
	node  uint32
	gain  int64   // the marginal gain this score was computed from
	score float64 // ranking key: gain, or gain/cost in the ratio pass
}

// candidateHeap is a max-heap by score, ties toward the lower node id.
type candidateHeap []candidate

func (h candidateHeap) Len() int { return len(h) }
func (h candidateHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score > h[j].score
	}
	return h[i].node < h[j].node
}
func (h candidateHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x any)   { *h = append(*h, x.(candidate)) }
func (h *candidateHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
