package maxcover

import (
	"container/heap"
	"fmt"

	"repro/internal/diffusion"
)

// The eager reference selection: GreedyIndex, greedyConstrained,
// greedyLazy and coverNode as they were when every pick decremented the
// count of each member of every set it newly covered, keeping all counts
// exact at all times. The code is verbatim except for the renames and for
// allocating its scratch with make instead of the pools. The equivalence
// tests hold the on-demand selection to it, field for field.

// refGreedyIndex is the reference GreedyIndex.
func refGreedyIndex(idx *Index, col *diffusion.RRCollection, c Constraints) Result {
	if col.Count() > idx.Sets() {
		panic(fmt.Sprintf("maxcover: selecting over %d sets with an index of %d", col.Count(), idx.Sets()))
	}
	if c.constrained() {
		return refGreedyConstrained(idx, col, c)
	}
	n := idx.N()
	k := clampK(c.K, n)
	res := Result{
		Seeds:     make([]uint32, 0, k),
		Marginals: make([]int64, 0, k),
	}
	if n == 0 || k == 0 {
		return res
	}
	count := make([]int64, n)
	idx.prefixCounts(col.Count(), count)
	coveredSet := make([]bool, col.Count())
	selected := make([]bool, n)

	// Buckets by count with lazy repositioning. counts only decrease, so
	// a node found in a bucket above its true count is moved down.
	maxCount := int64(0)
	for _, c := range count {
		if c > maxCount {
			maxCount = c
		}
	}
	buckets := make([][]uint32, maxCount+1)
	for v := 0; v < n; v++ {
		c := count[v]
		buckets[c] = append(buckets[c], uint32(v))
	}
	var covered int64

	cur := maxCount
	for len(res.Seeds) < k {
		// Find the true current maximum.
		var pick int64 = -1
		for cur > 0 {
			b := buckets[cur]
			if len(b) == 0 {
				cur--
				continue
			}
			v := b[len(b)-1]
			buckets[cur] = b[:len(b)-1]
			if selected[v] {
				continue
			}
			if count[v] != cur {
				// Stale: reposition at its true count.
				buckets[count[v]] = append(buckets[count[v]], v)
				continue
			}
			pick = int64(v)
			break
		}
		if pick < 0 {
			// All remaining nodes have zero marginal coverage; fill
			// with lowest unselected ids.
			for v := 0; v < n && len(res.Seeds) < k; v++ {
				if !selected[v] {
					selected[v] = true
					res.Seeds = append(res.Seeds, uint32(v))
					res.Marginals = append(res.Marginals, 0)
				}
			}
			break
		}
		v := uint32(pick)
		selected[v] = true
		gain := count[v]
		res.Seeds = append(res.Seeds, v)
		res.Marginals = append(res.Marginals, gain)
		covered += gain
		refCoverNode(idx, col, v, count, coveredSet)
		// count[v] is now 0 by construction (all its sets got covered).
	}
	res.Covered = covered
	return res
}

// refCoverNode marks v's still-uncovered sets among the θ = col.Count()
// prefix covered and decrements the counts of their members. v's posting
// list is ascending, so the walk stops at the first id ≥ θ.
func refCoverNode(idx *Index, col *diffusion.RRCollection, v uint32, count []int64, coveredSet []bool) {
	theta := uint32(col.Count())
	for _, s := range idx.Posting(v) {
		if s >= theta {
			break
		}
		if coveredSet[s] {
			continue
		}
		coveredSet[s] = true
		for _, u := range col.Set(int(s)) {
			count[u]--
		}
	}
}

// refGreedyConstrained is the reference constrained half.
func refGreedyConstrained(idx *Index, col *diffusion.RRCollection, c Constraints) Result {
	n := idx.N()
	k := clampK(c.K, n)
	res := Result{
		Seeds:     make([]uint32, 0, k+len(c.Force)),
		Marginals: make([]int64, 0, k+len(c.Force)),
	}
	if n == 0 {
		return res
	}
	count := make([]int64, n)
	idx.prefixCounts(col.Count(), count)
	coveredSet := make([]bool, col.Count())
	selected := make([]bool, n)
	excluded := make([]bool, n)
	for _, v := range c.Exclude {
		if int(v) < n {
			excluded[v] = true
		}
	}

	// Warm-start: cover the forced nodes first, recording their marginal
	// coverage in order, so the greedy picks below optimize genuinely
	// marginal gain over what the caller has already seeded.
	for _, v := range c.Force {
		if int(v) >= n || selected[v] {
			continue
		}
		selected[v] = true
		gain := count[v]
		refCoverNode(idx, col, v, count, coveredSet)
		res.Seeds = append(res.Seeds, v)
		res.Marginals = append(res.Marginals, gain)
		res.Covered += gain
		res.Forced++
	}

	if k == 0 {
		return res
	}
	if c.Budget <= 0 {
		refGreedyLazy(idx, col, count, coveredSet, selected, excluded, k, nil, 0, false, &res)
		// Pad with zero-marginal eligible nodes, as the bucket greedy
		// does, so cardinality queries keep the "exactly k picks" contract.
		for v := 0; v < n && len(res.Seeds)-res.Forced < k; v++ {
			if !selected[v] && !excluded[v] {
				selected[v] = true
				res.Seeds = append(res.Seeds, uint32(v))
				res.Marginals = append(res.Marginals, 0)
			}
		}
		return res
	}

	// Budget mode: run ratio and uniform passes on copies of the
	// post-forced state, keep the better cover.
	ratio := res
	ratio.Seeds = append([]uint32(nil), res.Seeds...)
	ratio.Marginals = append([]int64(nil), res.Marginals...)
	refGreedyLazy(idx, col, refCloneI64(count), refCloneBool(coveredSet),
		refCloneBool(selected), excluded, k, c.Costs, c.Budget, true, &ratio)

	uniform := res
	uniform.Seeds = append([]uint32(nil), res.Seeds...)
	uniform.Marginals = append([]int64(nil), res.Marginals...)
	refGreedyLazy(idx, col, count, coveredSet,
		selected, excluded, k, c.Costs, c.Budget, false, &uniform)

	if ratio.Covered >= uniform.Covered {
		return ratio
	}
	return uniform
}

// refGreedyLazy is a CELF-style lazy greedy: a max-heap of (stale) marginal
// gains, re-evaluated on pop. budget <= 0 means cardinality-only; costs
// nil means unit costs. It appends picks to res and updates Covered/Cost.
//
// With budget > 0, rankByRatio selects the ranking score — gain/cost (the
// ratio pass) or raw gain (the cost-oblivious pass); both respect
// affordability: a popped node whose cost exceeds the remaining budget is
// dropped from candidacy and the scan continues.
func refGreedyLazy(idx *Index, col *diffusion.RRCollection, count []int64,
	coveredSet []bool, selected, excluded []bool, k int, costs []float64, budget float64, rankByRatio bool, res *Result) {

	n := idx.N()
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
	h := candidateHeap{}
	for v := 0; v < n; v++ {
		if selected[v] || excluded[v] || count[v] == 0 {
			continue
		}
		h = append(h, candidate{node: uint32(v), gain: count[v], score: scoreOf(uint32(v), count[v])})
	}
	heap.Init(&h)
	remaining := budget
	picks := 0
	for picks < k && h.Len() > 0 {
		top := h[0]
		if count[top.node] != top.gain {
			// Stale: re-score with the current gain and reposition.
			top.gain = count[top.node]
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
		selected[v] = true
		res.Seeds = append(res.Seeds, v)
		res.Marginals = append(res.Marginals, top.gain)
		res.Covered += top.gain
		if budget > 0 {
			remaining -= costOf(v)
			res.Cost += costOf(v)
		}
		picks++
		refCoverNode(idx, col, v, count, coveredSet)
	}
}

func refCloneI64(xs []int64) []int64 { return append([]int64(nil), xs...) }
func refCloneBool(xs []bool) []bool  { return append([]bool(nil), xs...) }
