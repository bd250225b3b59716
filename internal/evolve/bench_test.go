package evolve

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/rng"
)

// BenchmarkRepairVsResample compares incremental repair against the only
// alternative the server had before this subsystem — throwing the
// collection away and resampling from scratch — across delta-batch sizes
// on a Table-2-profile synthetic graph. Results are recorded in
// EXPERIMENTS.md §E12.
func BenchmarkRepairVsResample(b *testing.B) {
	p, err := gen.ProfileByName("nethept")
	if err != nil {
		b.Fatal(err)
	}
	g0 := p.Generate(gen.ScaleTiny, 1)
	graph.AssignWeightedCascade(g0)
	model := diffusion.NewIC()
	const theta = 20000
	const seed = 99

	for _, frac := range []float64{0.0001, 0.001, 0.01} {
		batchEdges := int(float64(g0.M()) * frac)
		if batchEdges < 1 {
			batchEdges = 1
		}
		// Build the evolving graph and warm collection once per size, then
		// benchmark one batch's repair against a cold resample on the same
		// post-mutation snapshot.
		eg := New(g0, WeightedCascade{}, Options{})
		snap, _ := eg.Snapshot()
		col := &diffusion.RRCollection{Off: []int64{0}}
		if err := diffusion.ExtendCollection(context.Background(), snap, model, col, theta, seed, 0); err != nil {
			b.Fatal(err)
		}
		r := rng.New(7)
		batch := Batch{}
		edges := eg.Edges()
		for i := 0; i < batchEdges; i++ {
			if i%2 == 0 {
				batch.Inserts = append(batch.Inserts, graph.Edge{
					From: uint32(r.Intn(snap.N())), To: uint32(r.Intn(snap.N())), Weight: 0.5,
				})
			} else {
				v := edges[r.Intn(len(edges))]
				batch.Deletes = append(batch.Deletes, EdgeKey{v.From, v.To})
			}
		}
		if _, err := eg.Apply(batch); err != nil {
			b.Fatal(err)
		}
		delta, ok := eg.DeltaSince(0)
		if !ok {
			b.Fatal("delta unavailable")
		}
		snap2, _ := eg.Snapshot()
		// The old collection's cover index, as a server keeping the
		// (collection, index) pair holds it: built once, outside the
		// timed loop, and only read by RepairConfig.
		idx := maxcover.NewIndex(snap.N(), col, 0)

		b.Run(fmt.Sprintf("repair/frac=%g", frac), func(b *testing.B) {
			var repaired int64
			for i := 0; i < b.N; i++ {
				_, _, stats, err := RepairConfig(context.Background(), snap2, model, diffusion.SampleConfig{}, col, idx, delta, seed, 0)
				if err != nil {
					b.Fatal(err)
				}
				repaired = stats.Repaired
			}
			b.ReportMetric(float64(repaired), "sets-repaired")
			b.ReportMetric(float64(repaired)/float64(theta)*100, "%-repaired")
		})
		b.Run(fmt.Sprintf("resample/frac=%g", frac), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cold := &diffusion.RRCollection{Off: []int64{0}}
				if err := diffusion.ExtendCollection(context.Background(), snap2, model, cold, theta, seed, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
