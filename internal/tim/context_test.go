package tim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestMaximizeContextCancelled: a pre-cancelled context aborts before any
// result is produced.
func TestMaximizeContextCancelled(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rng.New(1))
	graph.AssignWeightedCascade(g)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := MaximizeContext(ctx, g, diffusion.NewIC(), Options{K: 5, Epsilon: 0.3, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestMaximizeContextBackground: MaximizeContext with a background
// context matches Maximize exactly.
func TestMaximizeContextBackground(t *testing.T) {
	g := gen.BarabasiAlbert(200, 3, rng.New(2))
	graph.AssignWeightedCascade(g)
	opts := Options{K: 4, Epsilon: 0.3, Seed: 5, Workers: 1}
	a, err := Maximize(g, diffusion.NewIC(), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MaximizeContext(context.Background(), g, diffusion.NewIC(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a.Seeds) != fmt.Sprint(b.Seeds) || a.Theta != b.Theta {
		t.Fatalf("Maximize and MaximizeContext diverge: %v/%d vs %v/%d",
			a.Seeds, a.Theta, b.Seeds, b.Theta)
	}
}

// recordingSource serves node selection from a pre-extended collection,
// recording the θ values requested.
type recordingSource struct {
	col    *diffusion.RRCollection
	seed   uint64
	thetas []int64
}

func (s *recordingSource) NodeSelectionSets(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, error) {
	s.thetas = append(s.thetas, theta)
	if s.col == nil {
		s.col = &diffusion.RRCollection{}
	}
	if err := diffusion.ExtendCollection(ctx, g, model, s.col, theta, s.seed, workers); err != nil {
		return nil, err
	}
	return s.col, nil
}

// TestCollectionSourceHook: Maximize consumes the supplied collection,
// reports the (possibly larger) actual θ, and a second run with smaller
// θ reuses the same collection without shrinking it.
func TestCollectionSourceHook(t *testing.T) {
	g := gen.BarabasiAlbert(250, 3, rng.New(3))
	graph.AssignWeightedCascade(g)
	src := &recordingSource{seed: 42}

	r1, err := Maximize(g, diffusion.NewIC(), Options{K: 10, Epsilon: 0.3, Seed: 9, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if len(src.thetas) != 1 {
		t.Fatalf("source consulted %d times, want 1", len(src.thetas))
	}
	if r1.Theta != int64(src.col.Count()) {
		t.Fatalf("Theta=%d must equal the source collection count %d", r1.Theta, src.col.Count())
	}
	if len(r1.Seeds) != 10 {
		t.Fatalf("want 10 seeds, got %v", r1.Seeds)
	}

	before := src.col.Count()
	r2, err := Maximize(g, diffusion.NewIC(), Options{K: 2, Epsilon: 0.5, Seed: 9, Source: src})
	if err != nil {
		t.Fatal(err)
	}
	if src.col.Count() < before {
		t.Fatalf("collection shrank: %d -> %d", before, src.col.Count())
	}
	if r2.Theta < src.thetas[1] {
		t.Fatalf("Theta=%d below requested θ=%d", r2.Theta, src.thetas[1])
	}
}

// shortSource returns fewer sets than requested: Maximize must reject it.
type shortSource struct{}

func (shortSource) NodeSelectionSets(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, error) {
	col := &diffusion.RRCollection{}
	err := diffusion.ExtendCollection(ctx, g, model, col, 1, 1, 1)
	return col, err
}

func TestCollectionSourceTooShort(t *testing.T) {
	g := gen.BarabasiAlbert(250, 3, rng.New(3))
	graph.AssignWeightedCascade(g)
	_, err := Maximize(g, diffusion.NewIC(), Options{K: 10, Epsilon: 0.1, Seed: 9, Source: shortSource{}})
	if !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource for a short source, got %v", err)
	}
}
