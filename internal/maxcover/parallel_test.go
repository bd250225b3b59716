package maxcover

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/rng"
)

func sameResult(t *testing.T, label string, got, want Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Seeds, want.Seeds) {
		t.Fatalf("%s: seeds %v != %v", label, got.Seeds, want.Seeds)
	}
	if !reflect.DeepEqual(got.Marginals, want.Marginals) {
		t.Fatalf("%s: marginals differ", label)
	}
	if got.Covered != want.Covered || got.Forced != want.Forced || got.Cost != want.Cost {
		t.Fatalf("%s: covered/forced/cost %d/%d/%g != %d/%d/%g",
			label, got.Covered, got.Forced, got.Cost, want.Covered, want.Forced, want.Cost)
	}
}

// TestGreedyWorkersBitIdentical: the parallel index build changes nothing
// observable — picks, marginals, and coverage match the serial build on
// randomized collections large enough to actually take the parallel path.
func TestGreedyWorkersBitIdentical(t *testing.T) {
	for _, tc := range []struct{ n, sets, maxSize int }{
		{500, 6000, 12},  // above minParallelFlat: the sharded path runs
		{80, 300, 5},     // below: serial fallback, still identical
		{2000, 9000, 16}, // skewed larger instance
	} {
		col := randomCollection(uint64(tc.n), tc.n, tc.sets, tc.maxSize)
		want := GreedyWorkers(tc.n, col, 25, 1)
		for _, workers := range []int{2, 3, 8, 0} {
			got := GreedyWorkers(tc.n, col, 25, workers)
			sameResult(t, fmt.Sprintf("n=%d/workers=%d", tc.n, workers), got, want)
		}
	}
}

// TestGreedyConstrainedWorkersBitIdentical sweeps the constrained paths —
// force, exclude, budget — across worker counts.
func TestGreedyConstrainedWorkersBitIdentical(t *testing.T) {
	const n = 600
	col := randomCollection(7, n, 7000, 10)
	costs := make([]float64, n)
	r := rng.New(8)
	for i := range costs {
		costs[i] = 0.5 + 2*r.Float64()
	}
	cases := map[string]Constraints{
		"force":   {K: 10, Force: []uint32{3, 99, 250}},
		"exclude": {K: 10, Exclude: []uint32{0, 1, 2, 3, 4, 5, 6, 7}},
		"budget":  {K: 12, Budget: 9, Costs: costs},
		"all":     {K: 8, Budget: 14, Costs: costs, Force: []uint32{17}, Exclude: []uint32{40, 41}},
	}
	for name, c := range cases {
		serial := c
		serial.Workers = 1
		want := GreedyConstrained(n, col, serial)
		for _, workers := range []int{2, 5, 0} {
			par := c
			par.Workers = workers
			got := GreedyConstrained(n, col, par)
			sameResult(t, fmt.Sprintf("%s/workers=%d", name, workers), got, want)
		}
	}
}

// TestCountCoveredWorkers: the range-parallel count matches the serial
// one, and back-to-back calls stay correct (the pooled seed-mark scratch
// must reset sparsely without leaking marks between calls).
func TestCountCoveredWorkers(t *testing.T) {
	const n = 400
	col := randomCollection(9, n, 6000, 8)
	r := rng.New(10)
	for trial := 0; trial < 20; trial++ {
		seeds := make([]uint32, 1+r.Intn(30))
		for i := range seeds {
			seeds[i] = uint32(r.Intn(n + 5)) // some deliberately out of range
		}
		want := CountCovered(n, col, seeds)
		for _, workers := range []int{2, 4, 0} {
			if got := CountCoveredWorkers(n, col, seeds, workers); got != want {
				t.Fatalf("trial %d workers=%d: %d != %d", trial, workers, got, want)
			}
		}
	}
}

// TestScratchPoolCounters: the pools actually recycle.
func TestScratchPoolCounters(t *testing.T) {
	col := randomCollection(11, 300, 4000, 8)
	h0, m0 := ScratchPoolStats()
	for i := 0; i < 5; i++ {
		Greedy(300, col, 10)
		CountCovered(300, col, []uint32{1, 2, 3})
	}
	h1, m1 := ScratchPoolStats()
	if h1 <= h0 {
		t.Fatalf("no pool hits recorded: %d → %d (misses %d → %d)", h0, h1, m0, m1)
	}
}

// BenchmarkGreedyParallel measures the selection phase (index build +
// greedy cover) at one and all cores on a large-θ-shaped instance.
func BenchmarkGreedyParallel(b *testing.B) {
	const n = 20000
	col := randomCollection(1, n, 200000, 8)
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := GreedyWorkers(n, col, 50, workers)
				if len(res.Seeds) != 50 {
					b.Fatalf("picks=%d", len(res.Seeds))
				}
			}
		})
	}
}

// TestIndexedGreedyMatchesPrefix: selecting over a kept index at any
// θ ≤ Sets() — the rr-store's warm path — gives exactly the result of
// indexing the θ-prefix alone, in every mode (cardinality, force and
// exclude, budget with costs) and for every build worker count.
func TestIndexedGreedyMatchesPrefix(t *testing.T) {
	r := rng.New(12)
	for trial := 0; trial < 40; trial++ {
		n := 20 + r.Intn(600)
		col := randomCollection(uint64(100+trial), n, 1+r.Intn(9000), 1+r.Intn(12))
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 0.25 + 2*r.Float64()
		}
		ids := func(max int) []uint32 {
			out := make([]uint32, r.Intn(max+1))
			for i := range out {
				out[i] = uint32(r.Intn(n + 3)) // duplicates and out-of-range ids included
			}
			return out
		}
		modes := map[string]Constraints{
			"cardinality":   {K: 1 + r.Intn(60)},
			"force/exclude": {K: 1 + r.Intn(60), Force: ids(4), Exclude: ids(10)},
			"budget":        {K: 1 + r.Intn(60), Budget: 1 + 12*r.Float64(), Costs: costs, Force: ids(2)},
		}
		for _, workers := range []int{1, 2, 4} {
			idx := NewIndex(n, col, workers)
			for _, theta := range []int{col.Count(), r.Intn(col.Count() + 1)} {
				prefix := col.Prefix(theta)
				for name, c := range modes {
					c.Workers = workers
					label := fmt.Sprintf("trial %d workers=%d θ=%d/%d %s", trial, workers, theta, idx.Sets(), name)
					got, want := GreedyIndex(idx, prefix, c), GreedyConstrained(n, prefix, c)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: indexed %+v, per-call %+v", label, got, want)
					}
				}
			}
		}
	}
}

// BenchmarkGreedyIndexed measures selection over a kept index — the
// rr-store's warm path, which skips the build BenchmarkGreedyParallel
// pays per call — at the full indexed count and at a θ-prefix, beside
// the one-off NewIndex build it amortizes. The uniform sets hide what
// counting costs on real input; the rr-nethept case selects over IC RR
// sets on the nethept small stand-in (15k nodes; 225k sets, 40k under
// -short) at a 95% prefix, and reports the postings the selection read.
func BenchmarkGreedyIndexed(b *testing.B) {
	b.Run("rr-nethept", func(b *testing.B) {
		sets := int64(225000)
		if testing.Short() {
			sets = 40000
		}
		n, col := rrCollection(b, "nethept", gen.ScaleSmall, 11, sets)
		idx := NewIndex(n, col, 1)
		prefix := col.Prefix(int(sets * 95 / 100))
		var reads int64
		b.ReportAllocs()
		for b.Loop() {
			s := newSelection(idx, prefix, false)
			if res := s.greedy(Constraints{K: 50}); len(res.Seeds) != 50 {
				b.Fatalf("picks=%d", len(res.Seeds))
			}
			reads += s.reads
			s.release()
		}
		b.ReportMetric(float64(reads)/float64(b.N), "postings/op")
	})
	const n = 20000
	col := randomCollection(1, n, 200000, 8)
	idx := NewIndex(n, col, 1)
	for _, theta := range []int{200000, 150000} {
		prefix := col.Prefix(theta)
		b.Run(fmt.Sprintf("theta=%d", theta), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if res := GreedyIndex(idx, prefix, Constraints{K: 50}); len(res.Seeds) != 50 {
					b.Fatalf("picks=%d", len(res.Seeds))
				}
			}
		})
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			NewIndex(n, col, 1)
		}
	})
}

// BenchmarkCountCoveredParallel measures the refine-pass coverage count
// at one and all cores.
func BenchmarkCountCoveredParallel(b *testing.B) {
	const n = 20000
	col := randomCollection(2, n, 200000, 8)
	seeds := make([]uint32, 50)
	for i := range seeds {
		seeds[i] = uint32(i * 17)
	}
	for _, workers := range []int{1, 0} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				CountCoveredWorkers(n, col, seeds, workers)
			}
		})
	}
}
