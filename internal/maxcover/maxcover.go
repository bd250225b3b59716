// Package maxcover implements the greedy algorithm for maximum coverage
// used by the node-selection phase of TIM (Algorithm 1 lines 3-7), the
// refinement step (Algorithm 3 lines 2-6), and the second step of Borgs et
// al.'s RIS. Given a family of RR sets over nodes, it repeatedly picks the
// node covering the most still-uncovered sets — the classic
// (1 − 1/e)-approximation for maximum coverage.
//
// The implementation is the linear-time bucket variant: exact coverage
// counts are maintained under decrements (each set contributes to count
// updates exactly once, when it first becomes covered), and the current
// maximum is tracked with lazily repositioned count buckets. Total work is
// O(Σ|R| + n + k), matching the "linear-time implementation" the paper
// relies on for its complexity claims.
//
// The inverted index (node → ascending ids of the sets containing it) is
// its own read-only type, Index, so a caller selecting repeatedly over one
// growing collection — the server's RR-collection store — builds it once
// per collection state and runs GreedyIndex over any θ-prefix of it.
// Building it parallelizes over set shards with order-fixed reductions
// (parallel.go), as does CountCovered; results are byte-identical for
// every worker count. The per-call arrays are recycled through
// process-wide pools (ScratchPoolStats).
package maxcover

import (
	"fmt"

	"repro/internal/diffusion"
)

// Result reports one greedy selection.
type Result struct {
	// Seeds are the selected nodes in pick order. For constrained
	// selection the first Forced entries are the warm-start seeds.
	Seeds []uint32
	// Covered is the number of RR sets covered by Seeds.
	Covered int64
	// Marginals[i] is the number of newly covered sets when Seeds[i]
	// was picked; non-increasing by submodularity within each phase
	// (forced seeds are covered in caller order, not greedy order, so
	// their marginals may be arbitrary).
	Marginals []int64
	// Forced counts the warm-start seeds at the front of Seeds
	// (GreedyConstrained only; zero for Greedy).
	Forced int
	// Cost is the total cost of the non-forced picks under
	// Constraints.Costs (budget mode only; zero otherwise).
	Cost float64
}

// Greedy selects k nodes from [0, n) maximizing coverage of the sets in
// col. If k exceeds n it is clamped. When every set is covered before k
// picks, the remaining picks have zero marginal and are filled with the
// lowest-id unselected nodes (the paper's algorithms always return exactly
// k nodes). Index construction parallelizes over all cores; use
// GreedyWorkers to bound it.
func Greedy(n int, col *diffusion.RRCollection, k int) Result {
	return GreedyWorkers(n, col, k, 0)
}

// GreedyWorkers is Greedy with an explicit parallelism knob for the
// occurrence count and inverted-index build (workers ≤ 0 = all cores;
// 1 = the serial build). The result is byte-identical for every worker
// count — workers only changes how fast the index is built, never which
// nodes win (see parallel.go for the determinism argument).
func GreedyWorkers(n int, col *diffusion.RRCollection, k, workers int) Result {
	return GreedyConstrained(n, col, Constraints{K: k, Workers: workers})
}

// GreedyIndex selects under c over col, which must be the θ-prefix
// (θ = col.Count() ≤ idx.Sets()) of the collection idx indexes: the same
// collection, or a Prefix view of it. It is the one selection loop of
// the package; Greedy, GreedyWorkers and GreedyConstrained build a
// per-call index and call it. Every node's count starts at its number of
// postings below θ and every posting walk stops at the first id ≥ θ, so
// counts, bucket order and visiting order — and therefore the result —
// equal a selection over an index built from col alone. c.Workers is
// unused: the index is already built.
func GreedyIndex(idx *Index, col *diffusion.RRCollection, c Constraints) Result {
	if col.Count() > idx.Sets() {
		panic(fmt.Sprintf("maxcover: selecting over %d sets with an index of %d", col.Count(), idx.Sets()))
	}
	if c.constrained() {
		return greedyConstrained(idx, col, c)
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
	count := i64Pool.get(n, false)
	idx.prefixCounts(col.Count(), count)
	coveredSet := boolPool.get(col.Count())
	selected := boolPool.get(n)
	defer func() {
		i64Pool.put(count)
		boolPool.put(coveredSet)
		boolPool.put(selected)
	}()

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
		coverNode(idx, col, v, count, coveredSet)
		// count[v] is now 0 by construction (all its sets got covered).
	}
	res.Covered = covered
	return res
}

// coverNode marks v's still-uncovered sets among the θ = col.Count()
// prefix covered and decrements the counts of their members. v's posting
// list is ascending, so the walk stops at the first id ≥ θ.
func coverNode(idx *Index, col *diffusion.RRCollection, v uint32, count []int64, coveredSet []bool) {
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

// clampK clamps a pick count into [0, n].
func clampK(k, n int) int {
	if k > n {
		return n
	}
	if k < 0 {
		return 0
	}
	return k
}

// CountCovered returns how many sets in col contain at least one of the
// given seeds. Used by Algorithm 3 to measure the fraction f of fresh RR
// sets covered by S'_k. It is CountCoveredWorkers with the serial scan;
// both share the pooled, sparsely-reset seed-membership scratch.
func CountCovered(n int, col *diffusion.RRCollection, seeds []uint32) int64 {
	return CountCoveredWorkers(n, col, seeds, 1)
}
