package maxcover

import (
	"testing"
	"testing/quick"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestGreedyIsTrulyGreedy: at every step, both implementations must pick
// a node whose marginal coverage equals the true maximum given their own
// prefix (tie-breaking may differ between them, so seed sequences and
// totals are not required to match exactly — greedy is not unique under
// ties).
func TestGreedyIsTrulyGreedy(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(25)
		col := &diffusion.RRCollection{Off: []int64{0}}
		numSets := r.Intn(80)
		for i := 0; i < numSets; i++ {
			maxSize := 4
			if maxSize > n {
				maxSize = n // size > n would make the dedup loop below spin forever
			}
			size := 1 + r.Intn(maxSize)
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
		for _, res := range []Result{Greedy(n, col, k), GreedyNaive(n, col, k)} {
			if !greedyInvariantHolds(n, col, res) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// greedyInvariantHolds replays res.Seeds and checks each marginal equals
// the brute-force maximum marginal at that step.
func greedyInvariantHolds(n int, col *diffusion.RRCollection, res Result) bool {
	covered := make([]bool, col.Count())
	selected := make([]bool, n)
	for step, seed := range res.Seeds {
		// Brute-force max marginal over all unselected nodes.
		var trueMax int64
		for v := 0; v < n; v++ {
			if selected[v] {
				continue
			}
			var m int64
			for s := 0; s < col.Count(); s++ {
				if covered[s] {
					continue
				}
				for _, u := range col.Set(s) {
					if int(u) == v {
						m++
						break
					}
				}
			}
			if m > trueMax {
				trueMax = m
			}
		}
		if res.Marginals[step] != trueMax {
			return false
		}
		selected[seed] = true
		for s := 0; s < col.Count(); s++ {
			if covered[s] {
				continue
			}
			for _, u := range col.Set(s) {
				if u == seed {
					covered[s] = true
					break
				}
			}
		}
	}
	return true
}

func TestGreedyNaiveBasics(t *testing.T) {
	col := &diffusion.RRCollection{Off: []int64{0}}
	col.Append([]uint32{0, 3})
	col.Append([]uint32{1})
	col.Append([]uint32{2})
	col.Append([]uint32{3})
	res := GreedyNaive(4, col, 1)
	if res.Seeds[0] != 3 || res.Covered != 2 {
		t.Fatalf("res=%+v", res)
	}
	if r := GreedyNaive(0, col, 2); len(r.Seeds) != 0 {
		t.Fatal("n=0 should return nothing")
	}
	if r := GreedyNaive(4, col, -2); len(r.Seeds) != 0 {
		t.Fatal("negative k should return nothing")
	}
}

func buildRealisticCollection(b *testing.B, sets int) (int, *diffusion.RRCollection) {
	b.Helper()
	g := gen.ChungLuDirected(5000, 30000, 2.4, 2.1, rng.New(1))
	graph.AssignWeightedCascade(g)
	col := diffusion.SampleCollection(g, diffusion.NewIC(), int64(sets), diffusion.SampleOptions{Workers: 0, Seed: 2})
	return g.N(), col
}

// BenchmarkAblationMaxcoverBucket vs ...Naive quantify the linear-time
// greedy against the O(k·Σ|R|) reference (DESIGN.md design decision 2).
func BenchmarkAblationMaxcoverBucket(b *testing.B) {
	n, col := buildRealisticCollection(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Greedy(n, col, 50)
	}
}

func BenchmarkAblationMaxcoverNaive(b *testing.B) {
	n, col := buildRealisticCollection(b, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GreedyNaive(n, col, 50)
	}
}
