package tim

import (
	"context"
	"fmt"

	"repro/internal/diffusion"
	"repro/internal/diskrr"
	"repro/internal/graph"
)

// Out-of-core node selection: the §8 "graphs that do not fit in main
// memory" direction. When Options.SpillDir is set, the θ RR sets of the
// node-selection phase stream to a temporary file in chunks instead of
// accumulating in RAM, and the greedy cover runs in k+1 sequential passes
// over that file (see internal/diskrr). Parameter estimation and
// refinement still run in memory — their collections are O(ℓ(m+n)log n)
// small by Theorem 2.

// spillChunk is the number of RR sets sampled (in parallel, in memory)
// between spill flushes. Peak memory is one chunk plus O(n) counters.
const spillChunk = 1 << 14

// selectOutOfCore runs Algorithm 1 with disk-resident RR storage. The
// context is polled between spill chunks (the granularity disk streaming
// naturally provides), so cancellation aborts within one chunk's work.
func selectOutOfCore(ctx context.Context, g *graph.Graph, model diffusion.Model, k int, theta int64,
	workers int, dir string, seeds *seedSequence) (*diskrr.Result, *diskSelStats, error) {

	w, err := diskrr.NewWriter(dir)
	if err != nil {
		return nil, nil, err
	}
	for generated := int64(0); generated < theta; {
		if err := ctx.Err(); err != nil {
			w.Abort()
			return nil, nil, err
		}
		batch := theta - generated
		if batch > spillChunk {
			batch = spillChunk
		}
		col := diffusion.SampleCollection(g, model, batch, diffusion.SampleOptions{
			Workers: workers,
			Seed:    seeds.next(),
			Ctx:     ctx,
		})
		for i := 0; i < col.Count(); i++ {
			if err := w.Append(col.Set(i)); err != nil {
				w.Abort()
				return nil, nil, fmt.Errorf("tim: spilling RR sets: %w", err)
			}
		}
		generated += batch
	}
	disk, err := w.Finish()
	if err != nil {
		// The writer has already removed the partial spill file.
		return nil, nil, fmt.Errorf("tim: finishing spill: %w", err)
	}
	defer disk.Close()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cover, err := diskrr.GreedyOutOfCore(g.N(), disk, k)
	if err != nil {
		return nil, nil, fmt.Errorf("tim: out-of-core selection: %w", err)
	}
	stats := &diskSelStats{
		totalNodes: disk.TotalNodes(),
		diskBytes:  disk.DiskBytes(),
	}
	return &cover, stats, nil
}

type diskSelStats struct {
	totalNodes int64
	diskBytes  int64
}
