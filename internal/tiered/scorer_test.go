package tiered

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/evolve"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestRefreshMatchesRebuild is the golden property of the incremental
// scorer: after any mutation sequence, a Refresh-maintained scorer is
// bitwise identical (scores and selection order) to a scorer built cold
// on the final snapshot.
func TestRefreshMatchesRebuild(t *testing.T) {
	g := gen.ErdosRenyiGnm(200, 900, rng.New(7))
	graph.AssignWeightedCascade(g)
	eg := evolve.New(g, evolve.WeightedCascade{}, evolve.Options{})

	snap, v0 := eg.Snapshot()
	sc := NewScorer(snap)

	batches := []evolve.Batch{
		{Inserts: []graph.Edge{{From: 3, To: 77}, {From: 77, To: 3}, {From: 0, To: 199}}},
		{Deletes: []evolve.EdgeKey{{From: 3, To: 77}}},
		{AddNodes: 5, Inserts: []graph.Edge{{From: 201, To: 5}, {From: 5, To: 204}}},
		{Inserts: []graph.Edge{{From: 204, To: 201}}, Deletes: []evolve.EdgeKey{{From: 0, To: 199}}},
	}
	prev := v0
	for i, b := range batches {
		v, err := eg.Apply(b)
		if err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		newSnap, sv := eg.Snapshot()
		if sv != v {
			t.Fatalf("batch %d: snapshot version %d, applied %d", i, sv, v)
		}
		delta, ok := eg.DeltaBetween(prev, v)
		if !ok {
			t.Fatalf("batch %d: delta log lost [%d,%d]", i, prev, v)
		}
		rescored := sc.Refresh(newSnap, delta)
		if rescored == 0 {
			t.Fatalf("batch %d: refresh rescored nothing", i)
		}

		cold := NewScorer(newSnap)
		if len(sc.score) != len(cold.score) {
			t.Fatalf("batch %d: %d scores vs cold %d", i, len(sc.score), len(cold.score))
		}
		for u := range cold.score {
			if sc.score[u] != cold.score[u] {
				t.Fatalf("batch %d: score[%d] = %v, cold rebuild %v", i, u, sc.score[u], cold.score[u])
			}
		}
		for j := range cold.sorted {
			if sc.sorted[j] != cold.sorted[j] {
				t.Fatalf("batch %d: sorted[%d] = %d, cold rebuild %d", i, j, sc.sorted[j], cold.sorted[j])
			}
		}
		prev = v
	}
}

func TestSelectBasics(t *testing.T) {
	// A star: node 0 points at everyone with high probability, so it must
	// be the first pick; after its discount, leaf scores collapse.
	edges := []graph.Edge{}
	for v := uint32(1); v < 10; v++ {
		edges = append(edges, graph.Edge{From: 0, To: v, Weight: 0.9})
	}
	g := graph.MustFromEdges(10, edges)
	sc := NewScorer(g)

	seeds, est := sc.Select(3, nil, nil)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3", len(seeds))
	}
	if seeds[0] != 0 {
		t.Fatalf("first pick = %d, want the hub 0", seeds[0])
	}
	if est <= 0 || est > 10 {
		t.Fatalf("estimate %v outside (0, n]", est)
	}

	// Exclude the hub: it must not appear.
	seeds, _ = sc.Select(3, nil, []uint32{0})
	for _, s := range seeds {
		if s == 0 {
			t.Fatal("excluded node picked")
		}
	}

	// Force leaves: they come first, the hub still follows.
	seeds, _ = sc.Select(2, []uint32{4, 7}, nil)
	if len(seeds) != 4 || seeds[0] != 4 || seeds[1] != 7 {
		t.Fatalf("forced selection = %v", seeds)
	}
	// Out-of-range and duplicate force entries are skipped, not picked.
	seeds, _ = sc.Select(1, []uint32{4, 4, 99}, nil)
	if len(seeds) != 2 || seeds[0] != 4 {
		t.Fatalf("forced selection with junk = %v", seeds)
	}

	// Determinism: identical calls, identical answers.
	a, _ := sc.Select(5, nil, nil)
	b, _ := sc.Select(5, nil, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("selection not deterministic: %v vs %v", a, b)
		}
	}
}

// TestSelectConcurrent exercises the read-only overlay contract: many
// concurrent Selects on one scorer must not interfere (run with -race).
func TestSelectConcurrent(t *testing.T) {
	g := gen.ErdosRenyiGnm(300, 1500, rng.New(11))
	graph.AssignWeightedCascade(g)
	sc := NewScorer(g)
	want, _ := sc.Select(10, nil, nil)

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				got, _ := sc.Select(10, nil, nil)
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("concurrent select diverged: %v vs %v", got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestSelectKLargerThanN(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{From: 0, To: 1, Weight: 0.5}})
	sc := NewScorer(g)
	seeds, _ := sc.Select(10, nil, nil)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds from a 3-node graph, want 3", len(seeds))
	}
}

// referenceSelect is Scorer.Select as it was written before its scratch
// became pooled and dense: a map overlay, a map of picked nodes, and
// container/heap over boxed [2]float64 entries. It is kept verbatim as
// the oracle the pooled implementation must match bit for bit — picks
// and spread estimate.
func referenceSelect(s *Scorer, k int, force, exclude []uint32) ([]uint32, float64) {
	n := len(s.score)
	overlay := make(map[uint32]float64, 8*(k+len(force))+len(exclude))
	cur := func(u uint32) float64 {
		if v, ok := overlay[u]; ok {
			return v
		}
		return s.score[u]
	}
	discount := func(u uint32) {
		nbrs, w := s.g.OutNeighbors(u)
		for i, v := range nbrs {
			overlay[v] = cur(v) * (1 - float64(w[i]))
		}
	}
	seeds := make([]uint32, 0, k+len(force))
	picked := make(map[uint32]struct{}, k+len(force)+len(exclude))
	est := 0.0
	for _, u := range exclude {
		picked[u] = struct{}{}
	}
	for _, u := range force {
		if _, dup := picked[u]; dup || int(u) >= n {
			continue
		}
		picked[u] = struct{}{}
		seeds = append(seeds, u)
		est += cur(u)
		discount(u)
	}

	h := &refHeap{}
	cursor := 0
	for taken := 0; taken < k && len(seeds) < n; {
		for cursor < n && (h.Len() == 0 || h.val[0] < s.score[s.sorted[cursor]]) {
			u := s.sorted[cursor]
			cursor++
			heap.Push(h, [2]float64{cur(u), float64(u)})
		}
		if h.Len() == 0 {
			break
		}
		top := heap.Pop(h).([2]float64)
		u := uint32(top[1])
		if top[0] != cur(u) {
			heap.Push(h, [2]float64{cur(u), float64(u)})
			continue
		}
		if _, skip := picked[u]; skip {
			continue
		}
		picked[u] = struct{}{}
		seeds = append(seeds, u)
		est += top[0]
		taken++
		discount(u)
	}
	if est > float64(n) {
		est = float64(n)
	}
	return seeds, est
}

// refHeap is the container/heap max-heap referenceSelect used.
type refHeap struct {
	val  []float64
	node []uint32
}

func (h *refHeap) Len() int { return len(h.node) }
func (h *refHeap) Less(i, j int) bool {
	if h.val[i] != h.val[j] {
		return h.val[i] > h.val[j]
	}
	return h.node[i] < h.node[j]
}
func (h *refHeap) Swap(i, j int) {
	h.val[i], h.val[j] = h.val[j], h.val[i]
	h.node[i], h.node[j] = h.node[j], h.node[i]
}
func (h *refHeap) Push(x any) {
	p := x.([2]float64)
	h.val = append(h.val, p[0])
	h.node = append(h.node, uint32(p[1]))
}
func (h *refHeap) Pop() any {
	n := len(h.node) - 1
	v, u := h.val[n], h.node[n]
	h.val, h.node = h.val[:n], h.node[:n]
	return [2]float64{v, float64(u)}
}

// randomIDs draws up to max ids in [0, n+4): duplicates and out-of-range
// ids on purpose.
func randomIDs(r *rng.Rand, n, max int) []uint32 {
	ids := make([]uint32, r.Intn(max+1))
	for i := range ids {
		ids[i] = uint32(r.Intn(n + 4))
		if i > 0 && r.Intn(4) == 0 {
			ids[i] = ids[i-1]
		}
	}
	return ids
}

// TestSelectMatchesReference pins Select — picks and spread estimate,
// bit for bit — against referenceSelect on random graphs, before and
// after a Refresh that grows the node count, for k in 1..50 and random
// force/exclude lists. Back-to-back calls on one scorer also check that
// no per-call state leaks between Selects.
func TestSelectMatchesReference(t *testing.T) {
	r := rng.New(21)
	for trial := 0; trial < 12; trial++ {
		n := 30 + r.Intn(300)
		g := gen.ErdosRenyiGnm(n, 4*n+r.Intn(6*n), rng.New(uint64(trial)+100))
		graph.AssignWeightedCascade(g)
		eg := evolve.New(g, evolve.WeightedCascade{}, evolve.Options{})
		snap, v0 := eg.Snapshot()
		sc := NewScorer(snap)
		check := func(stage string) {
			t.Helper()
			for q := 0; q < 25; q++ {
				k := 1 + r.Intn(50)
				var force, exclude []uint32
				if q%2 == 1 {
					force = randomIDs(r, sc.N(), 5)
					exclude = randomIDs(r, sc.N(), 8)
				}
				got, gotEst := sc.Select(k, force, exclude)
				want, wantEst := referenceSelect(sc, k, force, exclude)
				label := fmt.Sprintf("trial %d %s q=%d k=%d force=%v exclude=%v", trial, stage, q, k, force, exclude)
				if fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("%s: picks %v, reference %v", label, got, want)
				}
				if math.Float64bits(gotEst) != math.Float64bits(wantEst) {
					t.Fatalf("%s: estimate %v, reference %v", label, gotEst, wantEst)
				}
			}
		}
		check("built")
		grow := evolve.Batch{AddNodes: 1 + r.Intn(20)}
		for i := 0; i < 10; i++ {
			grow.Inserts = append(grow.Inserts, graph.Edge{
				From: uint32(r.Intn(n + grow.AddNodes)), To: uint32(r.Intn(n + grow.AddNodes)), Weight: 0.5})
		}
		v1, err := eg.Apply(grow)
		if err != nil {
			t.Fatal(err)
		}
		newSnap, _ := eg.Snapshot()
		delta, ok := eg.DeltaBetween(v0, v1)
		if !ok {
			t.Fatal("delta log lost")
		}
		sc.Refresh(newSnap, delta)
		check("refreshed")
	}
}

// BenchmarkScorerSelect measures one fast-tier selection on the dblp
// stand-in the serve-light workload uses (80k nodes; the tiny scale under
// -short), with its allocations: Select's scratch is pooled, so the
// result slice is all a call should allocate.
func BenchmarkScorerSelect(b *testing.B) {
	scale := gen.ScaleSmall
	if testing.Short() {
		scale = gen.ScaleTiny
	}
	p, err := gen.ProfileByName("dblp")
	if err != nil {
		b.Fatal(err)
	}
	g := p.Generate(scale, 13)
	graph.AssignWeightedCascade(g)
	sc := NewScorer(g)
	for _, k := range []int{10, 20, 50} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if seeds, _ := sc.Select(k, nil, nil); len(seeds) != k {
					b.Fatalf("picked %d seeds, want %d", len(seeds), k)
				}
			}
		})
	}
}
