package evolve

import (
	"errors"
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func edgeList(t *testing.T, eg *Graph) []graph.Edge {
	t.Helper()
	return eg.Edges()
}

func TestApplyBasics(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{From: 0, To: 1, Weight: 0.5},
		{From: 1, To: 2, Weight: 0.25},
		{From: 2, To: 3, Weight: 0.75},
	})
	eg := New(g, nil, Options{})
	if eg.N() != 4 || eg.M() != 3 || eg.Version() != 0 {
		t.Fatalf("initial state n=%d m=%d v=%d", eg.N(), eg.M(), eg.Version())
	}

	v, err := eg.Apply(Batch{
		AddNodes: 2,
		Inserts:  []graph.Edge{{From: 4, To: 5, Weight: 0.1}},
		Deletes:  []EdgeKey{{From: 0, To: 1}},
		Reweights: []graph.Edge{
			{From: 1, To: 2, Weight: 0.9},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 || eg.Version() != 1 {
		t.Fatalf("version = %d", v)
	}
	if eg.N() != 6 || eg.M() != 3 {
		t.Fatalf("after batch: n=%d m=%d", eg.N(), eg.M())
	}
	want := []graph.Edge{
		{From: 1, To: 2, Weight: 0.9},
		{From: 2, To: 3, Weight: 0.75},
		{From: 4, To: 5, Weight: 0.1},
	}
	got := edgeList(t, eg)
	if len(got) != len(want) {
		t.Fatalf("edges = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], want[i])
		}
	}
	snap, ver := eg.Snapshot()
	if ver != 1 || snap.N() != 6 || snap.M() != 3 {
		t.Fatalf("snapshot n=%d m=%d v=%d", snap.N(), snap.M(), ver)
	}
}

// TestApplyAtomic: a batch with any invalid mutation leaves the graph
// untouched, even when earlier mutations in the batch were valid.
func TestApplyAtomic(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{From: 0, To: 1, Weight: 0.5}})
	eg := New(g, nil, Options{})
	cases := []Batch{
		{Deletes: []EdgeKey{{From: 0, To: 1}, {From: 0, To: 1}}},                          // second delete has no occurrence
		{Deletes: []EdgeKey{{From: 0, To: 1}}, Reweights: []graph.Edge{{From: 0, To: 1}}}, // reweight of the deleted edge
		{Inserts: []graph.Edge{{From: 0, To: 2, Weight: 0.5}, {From: 0, To: 9, Weight: 0.5}}},
		{Inserts: []graph.Edge{{From: 0, To: 2, Weight: 1.5}}},
		{AddNodes: -1},
		{AddNodes: math.MaxInt64},
		{AddNodes: 1 << 32},
		{Deletes: []EdgeKey{{From: 2, To: 0}}},
	}
	for i, b := range cases {
		if _, err := eg.Apply(b); err == nil {
			t.Fatalf("case %d: invalid batch accepted", i)
		}
		if eg.Version() != 0 || eg.M() != 1 || eg.N() != 3 {
			t.Fatalf("case %d: state mutated: v=%d n=%d m=%d", i, eg.Version(), eg.N(), eg.M())
		}
	}
	if _, err := eg.Apply(Batch{Deletes: []EdgeKey{{From: 2, To: 0}}}); !errors.Is(err, ErrUnknownEdge) {
		t.Fatalf("unknown delete: %v", err)
	}
}

// TestParallelEdges: duplicate edges coexist; Delete removes the latest
// occurrence; Reweight rewrites all occurrences.
func TestParallelEdges(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{{From: 0, To: 1, Weight: 0.25}})
	eg := New(g, nil, Options{})
	if _, err := eg.Apply(Batch{Inserts: []graph.Edge{{From: 0, To: 1, Weight: 0.75}}}); err != nil {
		t.Fatal(err)
	}
	if eg.M() != 2 {
		t.Fatalf("m = %d", eg.M())
	}
	if _, err := eg.Apply(Batch{Reweights: []graph.Edge{{From: 0, To: 1, Weight: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	for i, e := range edgeList(t, eg) {
		if e.Weight != 0.5 {
			t.Fatalf("occurrence %d weight %v after reweight-all", i, e.Weight)
		}
	}
	if _, err := eg.Apply(Batch{Deletes: []EdgeKey{{From: 0, To: 1}}}); err != nil {
		t.Fatal(err)
	}
	if eg.M() != 1 {
		t.Fatalf("m = %d after one delete", eg.M())
	}
	if _, err := eg.Apply(Batch{Deletes: []EdgeKey{{From: 0, To: 1}}}); err != nil {
		t.Fatal(err)
	}
	if eg.M() != 0 {
		t.Fatalf("m = %d after both deletes", eg.M())
	}
}

// TestSnapshotCachingAndImmutability: repeated Snapshot calls without
// mutations return the same instance; mutations produce a fresh one and
// the old instance keeps its pre-mutation content.
func TestSnapshotCachingAndImmutability(t *testing.T) {
	g := graph.MustFromEdges(3, []graph.Edge{{From: 0, To: 1, Weight: 0.5}})
	eg := New(g, nil, Options{})
	s1, v1 := eg.Snapshot()
	s2, _ := eg.Snapshot()
	if s1 != s2 {
		t.Fatal("snapshot not cached between mutations")
	}
	if v1 != 0 {
		t.Fatalf("v = %d", v1)
	}
	if _, err := eg.Apply(Batch{Inserts: []graph.Edge{{From: 1, To: 2, Weight: 0.5}}}); err != nil {
		t.Fatal(err)
	}
	s3, v3 := eg.Snapshot()
	if s3 == s1 || v3 != 1 {
		t.Fatal("mutation did not produce a fresh snapshot")
	}
	if s1.M() != 1 || s3.M() != 2 {
		t.Fatalf("old snapshot m=%d (want 1), new m=%d (want 2)", s1.M(), s3.M())
	}
}

// TestCanonicalOrderSurvivesCompaction: with an aggressive compaction
// threshold, a delete-heavy workload still preserves the relative order
// of surviving in-edges — the invariant unaffected RR sets depend on.
func TestCanonicalOrderSurvivesCompaction(t *testing.T) {
	r := rng.New(5)
	g := gen.ErdosRenyiGnm(40, 400, r)
	if err := g.SetUniformWeights(0.3); err != nil {
		t.Fatal(err)
	}
	eg := New(g, nil, Options{CompactFraction: 0.01})
	reference := New(g, nil, Options{CompactFraction: 1e9}) // effectively never compacts
	edges := eg.Edges()
	for i := 0; i < 120; i++ {
		victim := edges[r.Intn(len(edges))]
		b := Batch{Deletes: []EdgeKey{{From: victim.From, To: victim.To}}}
		if _, err := eg.Apply(b); err != nil {
			t.Fatal(err)
		}
		if _, err := reference.Apply(b); err != nil {
			t.Fatal(err)
		}
		// Drop one occurrence from the local mirror (latest, as Delete does).
		for j := len(edges) - 1; j >= 0; j-- {
			if edges[j].From == victim.From && edges[j].To == victim.To {
				edges = append(edges[:j], edges[j+1:]...)
				break
			}
		}
	}
	got := eg.Edges()
	want := reference.Edges()
	if len(got) != len(want) || len(got) != len(edges) {
		t.Fatalf("sizes: compacting %d, reference %d, mirror %d", len(got), len(want), len(edges))
	}
	for i := range want {
		if got[i] != want[i] || got[i] != edges[i] {
			t.Fatalf("order diverged at %d: %v vs %v vs %v", i, got[i], want[i], edges[i])
		}
	}
}

func TestDeltaSince(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{
		{From: 0, To: 1, Weight: 0.5},
		{From: 1, To: 2, Weight: 0.5},
		{From: 2, To: 3, Weight: 0.5},
	})
	eg := New(g, nil, Options{})
	mustApply := func(b Batch) {
		t.Helper()
		if _, err := eg.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	mustApply(Batch{Deletes: []EdgeKey{{From: 0, To: 1}}})
	mustApply(Batch{Inserts: []graph.Edge{{From: 3, To: 4, Weight: 0.5}}})
	mustApply(Batch{AddNodes: 1})

	d, ok := eg.DeltaSince(0)
	if !ok {
		t.Fatal("delta since 0 must be available")
	}
	if d.NBefore != 5 || d.NAfter != 6 {
		t.Fatalf("n transition %d -> %d", d.NBefore, d.NAfter)
	}
	if len(d.Heads) != 2 || d.Heads[0] != 1 || d.Heads[1] != 4 {
		t.Fatalf("heads = %v", d.Heads)
	}

	d, ok = eg.DeltaSince(2)
	if !ok || len(d.Heads) != 0 || d.NBefore != 5 || d.NAfter != 6 {
		t.Fatalf("delta since 2: %+v ok=%v", d, ok)
	}

	d, ok = eg.DeltaSince(3)
	if !ok || !d.Empty() {
		t.Fatalf("delta since current: %+v ok=%v", d, ok)
	}

	if _, ok := eg.DeltaSince(4); ok {
		t.Fatal("delta since a future version must fail")
	}
}

// TestDeltaBetween: a consumer pinned to an older snapshot can ask for
// the delta up to exactly that version, not just up to the present.
func TestDeltaBetween(t *testing.T) {
	g := graph.MustFromEdges(5, []graph.Edge{{From: 0, To: 1, Weight: 0.5}})
	eg := New(g, nil, Options{})
	mustApply := func(b Batch) {
		t.Helper()
		if _, err := eg.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	mustApply(Batch{Inserts: []graph.Edge{{From: 1, To: 2, Weight: 0.5}}}) // v1, head 2
	mustApply(Batch{AddNodes: 1})                                          // v2, n 5->6
	mustApply(Batch{Inserts: []graph.Edge{{From: 2, To: 3, Weight: 0.5}}}) // v3, head 3

	d, ok := eg.DeltaBetween(0, 1)
	if !ok || d.NBefore != 5 || d.NAfter != 5 || len(d.Heads) != 1 || d.Heads[0] != 2 {
		t.Fatalf("delta 0->1: %+v ok=%v", d, ok)
	}
	d, ok = eg.DeltaBetween(1, 2)
	if !ok || d.NBefore != 5 || d.NAfter != 6 || len(d.Heads) != 0 {
		t.Fatalf("delta 1->2: %+v ok=%v", d, ok)
	}
	d, ok = eg.DeltaBetween(1, 1)
	if !ok || !d.Empty() || d.NBefore != 5 {
		t.Fatalf("delta 1->1: %+v ok=%v", d, ok)
	}
	if _, ok := eg.DeltaBetween(2, 1); ok {
		t.Fatal("from > to must fail")
	}
	if _, ok := eg.DeltaBetween(1, 4); ok {
		t.Fatal("to beyond current version must fail")
	}
	d, ok = eg.DeltaBetween(0, 3)
	if !ok || d.NBefore != 5 || d.NAfter != 6 || len(d.Heads) != 2 {
		t.Fatalf("delta 0->3: %+v ok=%v", d, ok)
	}
}

// TestDeltaLogRetention: once the log's mutation budget is exceeded the
// oldest batches are dropped and DeltaSince from before the drop fails.
func TestDeltaLogRetention(t *testing.T) {
	g := graph.MustFromEdges(64, nil)
	eg := New(g, nil, Options{MaxLogMutations: 8})
	for i := 0; i < 16; i++ {
		b := Batch{Inserts: []graph.Edge{{From: uint32(i), To: uint32(i + 1), Weight: 0.5}}}
		if _, err := eg.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := eg.DeltaSince(0); ok {
		t.Fatal("delta from before log retention must fail")
	}
	if d, ok := eg.DeltaSince(12); !ok || len(d.Heads) != 4 {
		t.Fatalf("recent delta: %+v ok=%v", d, ok)
	}
}

// TestWeightedCascadePolicy: after arbitrary topology churn, snapshot
// weights match a cold AssignWeightedCascade over the same edges.
func TestWeightedCascadePolicy(t *testing.T) {
	r := rng.New(9)
	g := gen.ErdosRenyiGnm(30, 150, r)
	graph.AssignWeightedCascade(g)
	eg := New(g, WeightedCascade{}, Options{})
	for i := 0; i < 40; i++ {
		b := Batch{Inserts: []graph.Edge{{From: uint32(r.Intn(30)), To: uint32(r.Intn(30)), Weight: 1}}}
		if i%3 == 0 {
			edges := eg.Edges()
			v := edges[r.Intn(len(edges))]
			b.Deletes = []EdgeKey{{From: v.From, To: v.To}}
		}
		if _, err := eg.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := eg.Snapshot()
	cold, err := graph.FromEdges(eg.N(), eg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	graph.AssignWeightedCascade(cold)
	compareAllWeights(t, snap, cold)
}

// TestKeyedLTPolicy: same check for the keyed LT parameterization — the
// policy at touched heads reproduces a cold keyed assignment.
func TestKeyedLTPolicy(t *testing.T) {
	const seed = 77
	r := rng.New(13)
	g := gen.ErdosRenyiGnm(30, 150, r)
	graph.AssignRandomNormalizedLTKeyed(g, seed)
	eg := New(g, NewKeyedNormalizedLT(seed), Options{})
	for i := 0; i < 30; i++ {
		b := Batch{Inserts: []graph.Edge{{From: uint32(r.Intn(30)), To: uint32(r.Intn(30)), Weight: 0}}}
		if i%4 == 1 {
			edges := eg.Edges()
			v := edges[r.Intn(len(edges))]
			b.Deletes = []EdgeKey{{From: v.From, To: v.To}}
		}
		if _, err := eg.Apply(b); err != nil {
			t.Fatal(err)
		}
	}
	snap, _ := eg.Snapshot()
	cold, err := graph.FromEdges(eg.N(), eg.Edges())
	if err != nil {
		t.Fatal(err)
	}
	graph.AssignRandomNormalizedLTKeyed(cold, seed)
	compareAllWeights(t, snap, cold)
}

func compareAllWeights(t *testing.T, got, want *graph.Graph) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("shape: (%d,%d) vs (%d,%d)", got.N(), got.M(), want.N(), want.M())
	}
	for v := uint32(0); int(v) < got.N(); v++ {
		srcG, wG := got.InNeighbors(v)
		srcW, wW := want.InNeighbors(v)
		if len(srcG) != len(srcW) {
			t.Fatalf("head %d: indeg %d vs %d", v, len(srcG), len(srcW))
		}
		for i := range srcG {
			if srcG[i] != srcW[i] || wG[i] != wW[i] {
				t.Fatalf("head %d edge %d: (%d, %v) vs (%d, %v)", v, i, srcG[i], wG[i], srcW[i], wW[i])
			}
		}
	}
}
