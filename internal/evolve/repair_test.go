package evolve

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/rng"
)

const repairSeed = 424242

// sampleCold draws count sets on g exactly the way the reuse layer does.
func sampleCold(t *testing.T, g *graph.Graph, model diffusion.Model, count int64) *diffusion.RRCollection {
	t.Helper()
	col := &diffusion.RRCollection{Off: []int64{0}}
	if err := diffusion.ExtendCollection(context.Background(), g, model, col, count, repairSeed, 3); err != nil {
		t.Fatal(err)
	}
	return col
}

func compareCollections(t *testing.T, label string, got, want *diffusion.RRCollection) {
	t.Helper()
	if got.Count() != want.Count() {
		t.Fatalf("%s: %d sets vs %d", label, got.Count(), want.Count())
	}
	for i := range want.Off {
		if got.Off[i] != want.Off[i] {
			t.Fatalf("%s: offset %d: %d vs %d", label, i, got.Off[i], want.Off[i])
		}
	}
	for i := range want.Flat {
		if got.Flat[i] != want.Flat[i] {
			t.Fatalf("%s: flat[%d]: %d vs %d", label, i, got.Flat[i], want.Flat[i])
		}
	}
}

// affectedBound recomputes, independently of Repair, how many sets of col
// the delta can affect: sets whose root draw changes with the node count
// plus sets containing a touched head.
func affectedBound(col *diffusion.RRCollection, delta Delta) int64 {
	return int64(len(scanAffected(col, delta)))
}

// scanAffected lists the affected sets by reading every member id — the
// criterion Repair used before it read the cover index's posting lists.
func scanAffected(col *diffusion.RRCollection, delta Delta) []int32 {
	head := make(map[uint32]bool, len(delta.Heads))
	for _, h := range delta.Heads {
		head[h] = true
	}
	base := rng.New(repairSeed)
	var affected []int32
	var r1, r2 rng.Rand
	for i := 0; i < col.Count(); i++ {
		hit := false
		if delta.NBefore != delta.NAfter {
			base.SplitInto(uint64(i), &r1)
			r2 = r1
			hit = r1.Intn(delta.NBefore) != r2.Intn(delta.NAfter) || r1 != r2
		}
		if !hit {
			for _, v := range col.Set(i) {
				if head[v] {
					hit = true
					break
				}
			}
		}
		if hit {
			affected = append(affected, int32(i))
		}
	}
	return affected
}

// TestAffectedSetsMatchMemberScan: the affected sets read off the cover
// index's posting lists are exactly the sets a scan of every member
// finds, for random cumulative deltas with and without node growth —
// including heads on nodes added after the indexed sets were sampled.
func TestAffectedSetsMatchMemberScan(t *testing.T) {
	for _, grow := range []bool{false, true} {
		r := rng.New(5)
		g := gen.ErdosRenyiGnm(180, 900, r)
		graph.AssignWeightedCascade(g)
		eg := New(g, WeightedCascade{}, Options{})
		snap, v0 := eg.Snapshot()
		col := sampleCold(t, snap, diffusion.NewIC(), 900)
		for step := 0; step < 12; step++ {
			b := randomBatch(r, eg, grow)
			if grow {
				// An edge into a node the indexed sets predate: its head
				// has no posting list.
				b.AddNodes++
				b.Inserts = append(b.Inserts, graph.Edge{From: 0, To: uint32(eg.N() + b.AddNodes - 1), Weight: 0.5})
			}
			if _, err := eg.Apply(b); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			delta, ok := eg.DeltaSince(v0)
			if !ok {
				t.Fatalf("step %d: delta unavailable", step)
			}
			want := scanAffected(col, delta)
			for _, workers := range []int{1, 3} {
				got, rootChanged := affectedSets(maxcover.NewIndex(snap.N(), col, workers), delta, repairSeed, true)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("grow=%v step %d workers=%d: index gives %d sets %v, member scan %d sets %v",
						grow, step, workers, len(got), got, len(want), want)
				}
				if delta.NBefore == delta.NAfter && rootChanged != 0 {
					t.Fatalf("grow=%v step %d: %d root changes without node growth", grow, step, rootChanged)
				}
			}
		}
	}
}

// randomBatch builds a valid mutation batch against the graph's current
// state: a mix of inserts, deletes of live edges, reweights, and the
// occasional node growth.
func randomBatch(r *rng.Rand, eg *Graph, growNodes bool) Batch {
	var b Batch
	n := eg.N()
	edges := eg.Edges()
	inserts := 1 + r.Intn(4)
	for i := 0; i < inserts; i++ {
		b.Inserts = append(b.Inserts, graph.Edge{
			From:   uint32(r.Intn(n)),
			To:     uint32(r.Intn(n)),
			Weight: float32(0.5), // provisional; the policy overwrites it
		})
	}
	deletes := r.Intn(3)
	seen := make(map[EdgeKey]int)
	for _, e := range edges {
		seen[EdgeKey{e.From, e.To}]++
	}
	for i := 0; i < deletes && len(edges) > 0; i++ {
		v := edges[r.Intn(len(edges))]
		k := EdgeKey{v.From, v.To}
		if seen[k] == 0 {
			continue
		}
		seen[k]--
		b.Deletes = append(b.Deletes, k)
	}
	if r.Intn(3) == 0 && len(edges) > 0 {
		v := edges[r.Intn(len(edges))]
		if seen[EdgeKey{v.From, v.To}] > 0 {
			b.Reweights = append(b.Reweights, graph.Edge{From: v.From, To: v.To, Weight: 0.3})
		}
	}
	if growNodes && r.Intn(4) == 0 {
		b.AddNodes = 1 + r.Intn(2)
	}
	return b
}

// TestRepairMatchesColdSample is the subsystem's core guarantee: after
// every one of a sequence of random mutation batches, the incrementally
// repaired collection is bit-identical — members, order, offsets — to a
// collection sampled cold on the mutated snapshot, and the
// repaired-set counter matches the independently computed affected bound.
// The cover index RepairConfig returns is carried into the next batch, as
// the rr-store does, and must equal the index of the cold sample at every
// step — so patches chain, through node growth on uniform roots too.
// Run with -race in CI.
func TestRepairMatchesColdSample(t *testing.T) {
	cases := []struct {
		name      string
		model     diffusion.Model
		policy    WeightPolicy
		weight    func(*graph.Graph)
		growNodes bool
	}{
		{
			name:   "ic-weighted-cascade",
			model:  diffusion.NewIC(),
			policy: WeightedCascade{},
			weight: graph.AssignWeightedCascade,
		},
		{
			name:      "ic-node-growth",
			model:     diffusion.NewIC(),
			policy:    WeightedCascade{},
			weight:    graph.AssignWeightedCascade,
			growNodes: true,
		},
		{
			name:   "lt-keyed",
			model:  diffusion.NewLT(),
			policy: NewKeyedNormalizedLT(7),
			weight: func(g *graph.Graph) { graph.AssignRandomNormalizedLTKeyed(g, 7) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			const theta = 1200
			r := rng.New(1)
			g := gen.ErdosRenyiGnm(220, 1100, r)
			tc.weight(g)
			eg := New(g, tc.policy, Options{})
			snap, _ := eg.Snapshot()
			col := sampleCold(t, snap, tc.model, theta)
			idx := maxcover.NewIndex(snap.N(), col, 3)

			prev := eg.Version()
			batches := 10
			if testing.Short() {
				batches = 5
			}
			for step := 0; step < batches; step++ {
				b := randomBatch(r, eg, tc.growNodes)
				if _, err := eg.Apply(b); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				delta, ok := eg.DeltaSince(prev)
				if !ok {
					t.Fatalf("step %d: delta unavailable", step)
				}
				prev = eg.Version()
				snap, _ = eg.Snapshot()

				bound := affectedBound(col, delta)
				newCol, newIdx, stats, err := RepairConfig(context.Background(), snap, tc.model, diffusion.SampleConfig{}, col, idx, delta, repairSeed, 3)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if stats.Repaired != bound {
					t.Fatalf("step %d: repaired %d sets, affected bound is %d", step, stats.Repaired, bound)
				}
				if stats.Repaired+stats.Reused != stats.Sets || stats.Sets != theta {
					t.Fatalf("step %d: inconsistent stats %+v", step, stats)
				}
				col, idx = newCol, newIdx
				cold := sampleCold(t, snap, tc.model, theta)
				compareCollections(t, tc.name, col, cold)
				if !reflect.DeepEqual(idx, maxcover.NewIndex(snap.N(), cold, 3)) {
					t.Fatalf("step %d: carried index differs from the index of a cold sample", step)
				}
			}
		})
	}
}

// TestRepairWorkerIndependence: the repaired bytes must not depend on the
// worker count.
func TestRepairWorkerIndependence(t *testing.T) {
	r := rng.New(3)
	g := gen.ErdosRenyiGnm(150, 700, r)
	graph.AssignWeightedCascade(g)
	eg := New(g, WeightedCascade{}, Options{})
	snap, _ := eg.Snapshot()
	col := sampleCold(t, snap, diffusion.NewIC(), 600)
	if _, err := eg.Apply(randomBatch(r, eg, false)); err != nil {
		t.Fatal(err)
	}
	delta, _ := eg.DeltaSince(0)
	snap, _ = eg.Snapshot()
	ref, _, _, err := RepairConfig(context.Background(), snap, diffusion.NewIC(), diffusion.SampleConfig{}, col, maxcover.NewIndex(snap.N(), col, 1), delta, repairSeed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 5, 16} {
		got, _, _, err := RepairConfig(context.Background(), snap, diffusion.NewIC(), diffusion.SampleConfig{}, col, maxcover.NewIndex(snap.N(), col, workers), delta, repairSeed, workers)
		if err != nil {
			t.Fatal(err)
		}
		compareCollections(t, "workers", got, ref)
	}
}

func TestRepairRejects(t *testing.T) {
	g := gen.ErdosRenyiGnm(50, 200, rng.New(4))
	graph.AssignWeightedCascade(g)
	col := sampleCold(t, g, diffusion.NewIC(), 50)
	delta := Delta{NBefore: 50, NAfter: 50}

	trig := diffusion.NewTriggering(diffusion.ICTrigger{})
	if _, _, _, err := RepairConfig(context.Background(), g, trig, diffusion.SampleConfig{}, col, maxcover.NewIndex(g.N(), col, 1), delta, repairSeed, 1); !errors.Is(err, ErrUnsupportedModel) {
		t.Fatalf("triggering model: %v", err)
	}
	if _, _, _, err := RepairConfig(context.Background(), g, diffusion.NewIC(), diffusion.SampleConfig{}, col, maxcover.NewIndex(g.N(), col, 1), Delta{NBefore: 50, NAfter: 51}, repairSeed, 1); err == nil {
		t.Fatal("snapshot/delta shape mismatch accepted")
	}
}

// TestRepairCancellation: a cancelled context aborts the repair with the
// context's error.
func TestRepairCancellation(t *testing.T) {
	g := gen.ErdosRenyiGnm(100, 500, rng.New(6))
	graph.AssignWeightedCascade(g)
	eg := New(g, WeightedCascade{}, Options{})
	snap, _ := eg.Snapshot()
	col := sampleCold(t, snap, diffusion.NewIC(), 400)
	if _, err := eg.Apply(Batch{Inserts: []graph.Edge{{From: 1, To: 2, Weight: 1}}}); err != nil {
		t.Fatal(err)
	}
	delta, _ := eg.DeltaSince(0)
	snap, _ = eg.Snapshot()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := RepairConfig(ctx, snap, diffusion.NewIC(), diffusion.SampleConfig{}, col, maxcover.NewIndex(snap.N(), col, 2), delta, repairSeed, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled repair: %v", err)
	}
}
