package maxcover

import (
	"testing"
	"testing/quick"

	"repro/internal/diffusion"
	"repro/internal/rng"
)

// collectionOf builds an RRCollection from literal sets.
func collectionOf(sets ...[]uint32) *diffusion.RRCollection {
	col := &diffusion.RRCollection{Off: []int64{0}}
	for _, s := range sets {
		col.Append(s)
	}
	return col
}

func TestGreedyPaperExample(t *testing.T) {
	// Example 1 of the paper: R1={v1,v4}, R2={v2}, R3={v3}, R4={v4}
	// (0-indexed: {0,3},{1},{2},{3}). k=1 must pick v4 (=3), covering 2.
	col := collectionOf([]uint32{0, 3}, []uint32{1}, []uint32{2}, []uint32{3})
	res := Greedy(4, col, 1)
	if len(res.Seeds) != 1 || res.Seeds[0] != 3 {
		t.Fatalf("seeds=%v, want [3]", res.Seeds)
	}
	if res.Covered != 2 {
		t.Fatalf("covered=%d, want 2", res.Covered)
	}
}

func TestGreedyFullCoverage(t *testing.T) {
	col := collectionOf([]uint32{0, 1}, []uint32{1, 2}, []uint32{2, 0})
	res := Greedy(3, col, 2)
	if res.Covered != 3 {
		t.Fatalf("covered=%d, want 3", res.Covered)
	}
	if len(res.Seeds) != 2 {
		t.Fatalf("seeds=%v", res.Seeds)
	}
}

func TestGreedyMarginalsNonIncreasing(t *testing.T) {
	r := rng.New(3)
	col := &diffusion.RRCollection{Off: []int64{0}}
	const n = 40
	for i := 0; i < 300; i++ {
		size := 1 + r.Intn(5)
		set := map[uint32]bool{}
		for len(set) < size {
			set[uint32(r.Intn(n))] = true
		}
		var s []uint32
		for v := range set {
			s = append(s, v)
		}
		col.Append(s)
	}
	res := Greedy(n, col, 10)
	for i := 1; i < len(res.Marginals); i++ {
		if res.Marginals[i] > res.Marginals[i-1] {
			t.Fatalf("marginals increased: %v", res.Marginals)
		}
	}
	var sum int64
	for _, m := range res.Marginals {
		sum += m
	}
	if sum != res.Covered {
		t.Fatalf("marginal sum %d != covered %d", sum, res.Covered)
	}
}

func TestGreedyExactDuplicateSets(t *testing.T) {
	// 10 copies of {5}: picking node 5 covers all.
	sets := make([][]uint32, 10)
	for i := range sets {
		sets[i] = []uint32{5}
	}
	res := Greedy(8, collectionOf(sets...), 1)
	if res.Seeds[0] != 5 || res.Covered != 10 {
		t.Fatalf("res=%+v", res)
	}
}

func TestGreedyPadsWithZeroMarginals(t *testing.T) {
	col := collectionOf([]uint32{2})
	res := Greedy(5, col, 3)
	if len(res.Seeds) != 3 {
		t.Fatalf("want exactly k seeds, got %v", res.Seeds)
	}
	if res.Seeds[0] != 2 {
		t.Fatalf("first pick should cover the only set: %v", res.Seeds)
	}
	seen := map[uint32]bool{}
	for _, s := range res.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed in %v", res.Seeds)
		}
		seen[s] = true
	}
	if res.Marginals[1] != 0 || res.Marginals[2] != 0 {
		t.Fatalf("padding marginals nonzero: %v", res.Marginals)
	}
}

func TestGreedyEmptyCollection(t *testing.T) {
	col := &diffusion.RRCollection{Off: []int64{0}}
	res := Greedy(5, col, 2)
	if len(res.Seeds) != 2 || res.Covered != 0 {
		t.Fatalf("res=%+v", res)
	}
}

func TestGreedyKClamped(t *testing.T) {
	col := collectionOf([]uint32{0}, []uint32{1})
	res := Greedy(2, col, 10)
	if len(res.Seeds) != 2 {
		t.Fatalf("k should clamp to n: %v", res.Seeds)
	}
	res = Greedy(2, col, -1)
	if len(res.Seeds) != 0 {
		t.Fatalf("negative k: %v", res.Seeds)
	}
	res = Greedy(0, col, 3)
	if len(res.Seeds) != 0 {
		t.Fatalf("n=0: %v", res.Seeds)
	}
}

func TestGreedyBeatsFractionOfOptimal(t *testing.T) {
	// Brute-force optimal coverage on random instances; greedy must be
	// within (1 - 1/e) ≈ 0.632 of it. Small universes so the exhaustive
	// search is cheap.
	r := rng.New(17)
	for trial := 0; trial < 20; trial++ {
		const n, k = 10, 3
		col := &diffusion.RRCollection{Off: []int64{0}}
		numSets := 20 + r.Intn(30)
		sets := make([][]uint32, numSets)
		for i := range sets {
			size := 1 + r.Intn(3)
			seen := map[uint32]bool{}
			for len(seen) < size {
				seen[uint32(r.Intn(n))] = true
			}
			for v := range seen {
				sets[i] = append(sets[i], v)
			}
			col.Append(sets[i])
		}
		res := Greedy(n, col, k)
		best := int64(0)
		// All C(10,3)=120 subsets.
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				for c := b + 1; c < n; c++ {
					cov := CountCovered(n, col, []uint32{uint32(a), uint32(b), uint32(c)})
					if cov > best {
						best = cov
					}
				}
			}
		}
		if float64(res.Covered) < 0.632*float64(best) {
			t.Fatalf("trial %d: greedy %d < 0.632 * optimal %d", trial, res.Covered, best)
		}
	}
}

func TestCountCovered(t *testing.T) {
	col := collectionOf([]uint32{0, 1}, []uint32{2}, []uint32{1, 2})
	if got := CountCovered(3, col, []uint32{1}); got != 2 {
		t.Fatalf("covered=%d, want 2", got)
	}
	if got := CountCovered(3, col, []uint32{0, 2}); got != 3 {
		t.Fatalf("covered=%d, want 3", got)
	}
	if got := CountCovered(3, col, nil); got != 0 {
		t.Fatalf("covered=%d, want 0", got)
	}
	// Out-of-range seeds are ignored, not a crash.
	if got := CountCovered(3, col, []uint32{99}); got != 0 {
		t.Fatalf("covered=%d, want 0", got)
	}
}

func TestGreedyCoverageMatchesCountCovered(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(20)
		col := &diffusion.RRCollection{Off: []int64{0}}
		numSets := r.Intn(50)
		for i := 0; i < numSets; i++ {
			size := 1 + r.Intn(4)
			seen := map[uint32]bool{}
			for len(seen) < size {
				seen[uint32(r.Intn(n))] = true
			}
			var s []uint32
			for v := range seen {
				s = append(s, v)
			}
			col.Append(s)
		}
		k := 1 + r.Intn(n)
		res := Greedy(n, col, k)
		return res.Covered == CountCovered(n, col, res.Seeds)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
