// Package maxcover implements the greedy algorithm for maximum coverage
// used by the node-selection phase of TIM (Algorithm 1 lines 3-7), the
// refinement step (Algorithm 3 lines 2-6), and the second step of Borgs et
// al.'s RIS. Given a family of RR sets over nodes, it repeatedly picks the
// node covering the most still-uncovered sets — the classic
// (1 − 1/e)-approximation for maximum coverage.
//
// The implementation is the linear-time bucket variant with coverage
// counts computed on demand (selection.go). A pick sets the bits of its
// posting list in a θ-bit cover bitmap, and a node's count is recounted
// from its own posting list against that bitmap only when the greedy
// reads it after a pick; the current maximum is tracked with lazily
// repositioned count buckets. The greedy reads the counts of only the
// nodes it pops, so a selection reads far fewer postings than keeping
// every count exact would — yet each count it reads equals the exact one,
// so the answer is the eager greedy's, bit for bit. A work cap keeps the
// bound on adversarial input: once recounts have read as many postings as
// the θ-prefix has members, the selection finishes with eager decrements
// (each newly covered set decrements its members' counts once), and a
// node counted before the switch is recounted once more, when next read.
// Lazy recounts, the recounts after the switch and the decrements each
// cost at most Σ|R|, so total work is O(Σ|R| + n + k) past the initial
// per-node prefix counts, matching the "linear-time implementation" the
// paper relies on for its complexity claims.
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
// collection, or a Prefix view of it. It is the one selection entry of
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
	s := newSelection(idx, col, c.Budget > 0)
	defer s.release()
	return s.greedy(c)
}

// greedy runs the selection rule c calls for: the bucket greedy for plain
// cardinality, the lazy greedy of greedyConstrained otherwise.
func (s *selection) greedy(c Constraints) Result {
	if c.constrained() {
		return s.greedyConstrained(c)
	}
	return s.bucketGreedy(c.K)
}

// bucketGreedy picks k nodes by exact marginal coverage, ties broken by
// bucket order. Nodes sit in buckets by count; a count only falls, so a
// node popped from a bucket above its current count is stale and moves
// down to its true one. The counts come from gain, which recounts a node
// only when it is popped after a pick.
func (s *selection) bucketGreedy(k int) Result {
	n := s.idx.N()
	k = clampK(k, n)
	res := Result{
		Seeds:     make([]uint32, 0, k),
		Marginals: make([]int64, 0, k),
	}
	if n == 0 || k == 0 {
		return res
	}
	var covered int64

	cur := s.q.reset(s.count)
	for len(res.Seeds) < k {
		// Find the true current maximum.
		var pick int64 = -1
		for cur > 0 {
			v, ok := s.q.pop(cur)
			if !ok {
				cur--
				continue
			}
			if s.selected[v] {
				continue
			}
			if g := s.gain(v); g != cur {
				// Stale: reposition at its true count.
				s.q.push(g, v)
				continue
			}
			pick = int64(v)
			break
		}
		if pick < 0 {
			// All remaining nodes have zero marginal coverage; fill
			// with lowest unselected ids.
			for v := 0; v < n && len(res.Seeds) < k; v++ {
				if !s.selected[v] {
					s.selected[v] = true
					res.Seeds = append(res.Seeds, uint32(v))
					res.Marginals = append(res.Marginals, 0)
				}
			}
			break
		}
		v := uint32(pick)
		s.selected[v] = true
		gain := s.gain(v)
		res.Seeds = append(res.Seeds, v)
		res.Marginals = append(res.Marginals, gain)
		covered += gain
		s.cover(v)
	}
	res.Covered = covered
	return res
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
