package evolve

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/query"
	"repro/internal/rng"
)

// sampleColdConfig draws count sets under cfg exactly the way the reuse
// layer does for constrained profiles.
func sampleColdConfig(t *testing.T, g *graph.Graph, model diffusion.Model, cfg diffusion.SampleConfig, count int64) *diffusion.RRCollection {
	t.Helper()
	col := &diffusion.RRCollection{Off: []int64{0}}
	if err := diffusion.ExtendCollectionConfig(context.Background(), g, model, cfg, col, count, repairSeed, 3); err != nil {
		t.Fatal(err)
	}
	return col
}

// TestRepairConfigMatchesColdSample extends the subsystem's core
// bit-identity guarantee to constrained collections: weighted roots,
// bounded horizon, and both at once, across random mutation batches
// (including node growth for the horizon case — weighted profiles pin
// the audience, so their scenarios mutate edges only, mirroring how the
// server re-keys weighted collections when n changes). Run with -race in
// CI.
func TestRepairConfigMatchesColdSample(t *testing.T) {
	const n = 200
	weights := make([]float64, n)
	wr := rng.New(99)
	for i := range weights {
		weights[i] = 0.1 + wr.Float64()
	}
	compiled := func(t *testing.T, s *query.Spec) diffusion.SampleConfig {
		c, err := s.Compile(n)
		if err != nil {
			t.Fatal(err)
		}
		return c.Sample
	}
	cases := []struct {
		name      string
		model     diffusion.Model
		spec      *query.Spec
		growNodes bool
	}{
		{name: "ic-weighted", model: diffusion.NewIC(), spec: &query.Spec{Weights: weights}},
		{name: "lt-weighted", model: diffusion.NewLT(), spec: &query.Spec{Weights: weights}},
		{name: "ic-horizon", model: diffusion.NewIC(), spec: &query.Spec{MaxHops: 2}, growNodes: true},
		{name: "ic-weighted-horizon", model: diffusion.NewIC(), spec: &query.Spec{Weights: weights, MaxHops: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := compiled(t, tc.spec)
			const theta = 800
			r := rng.New(2)
			g := gen.ErdosRenyiGnm(n, 1000, r)
			var policy WeightPolicy
			if tc.model.Kind() == diffusion.LT {
				graph.AssignRandomNormalizedLTKeyed(g, 7)
				policy = NewKeyedNormalizedLT(7)
			} else {
				graph.AssignWeightedCascade(g)
				policy = WeightedCascade{}
			}
			eg := New(g, policy, Options{})
			snap, _ := eg.Snapshot()
			col := sampleColdConfig(t, snap, tc.model, cfg, theta)

			prev := eg.Version()
			batches := 6
			if testing.Short() {
				batches = 3
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

				newCol, newIdx, stats, err := RepairConfig(context.Background(), snap, tc.model, cfg, col, maxcover.NewIndex(snap.N(), col, 3), delta, repairSeed, 3)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if cfg.Roots != nil && delta.NBefore != delta.NAfter && stats.RootChanged != 0 {
					t.Fatalf("step %d: weighted roots flagged %d root-unstable sets", step, stats.RootChanged)
				}
				cold := sampleColdConfig(t, snap, tc.model, cfg, theta)
				compareCollections(t, tc.name, newCol, cold)
				if !reflect.DeepEqual(newIdx, maxcover.NewIndex(snap.N(), cold, 3)) {
					t.Fatalf("step %d: repaired index differs from the index of a cold sample", step)
				}
				if stats.Repaired+stats.Reused != stats.Sets || stats.Sets != theta {
					t.Fatalf("step %d: inconsistent stats %+v", step, stats)
				}
				col = newCol
			}
		})
	}
}
