package tim

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/query"
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

func (s *recordingSource) NodeSelectionSets(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, *maxcover.Index, error) {
	s.thetas = append(s.thetas, theta)
	if s.col == nil {
		s.col = &diffusion.RRCollection{}
	}
	if err := diffusion.ExtendCollection(ctx, g, model, s.col, theta, s.seed, workers); err != nil {
		return nil, nil, err
	}
	return s.col, nil, nil
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

func (shortSource) NodeSelectionSets(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, *maxcover.Index, error) {
	col := &diffusion.RRCollection{}
	err := diffusion.ExtendCollection(ctx, g, model, col, 1, 1, 1)
	return col, nil, err
}

func TestCollectionSourceTooShort(t *testing.T) {
	g := gen.BarabasiAlbert(250, 3, rng.New(3))
	graph.AssignWeightedCascade(g)
	_, err := Maximize(g, diffusion.NewIC(), Options{K: 10, Epsilon: 0.1, Seed: 9, Source: shortSource{}})
	if !errors.Is(err, ErrBadSource) {
		t.Fatalf("want ErrBadSource for a short source, got %v", err)
	}
}

// indexedSource serves the θ-prefix of a collection sampled past θ, with
// an index built over the whole collection — the shape of the server's
// rr-store. nodes and short distort the index to break the contract.
type indexedSource struct {
	seed         uint64
	extra        int64
	nodes, short int
}

func (s indexedSource) NodeSelectionSets(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, *maxcover.Index, error) {
	col := &diffusion.RRCollection{}
	if err := diffusion.ExtendCollection(ctx, g, model, col, theta+s.extra, s.seed, workers); err != nil {
		return nil, nil, err
	}
	idx := maxcover.NewIndex(g.N()+s.nodes, col.Prefix(col.Count()-s.short), workers)
	return col.Prefix(int(theta)), idx, nil
}

// TestCollectionSourceIndex: selecting over a source's index built past θ
// gives exactly the answer of the per-call index, and an index that does
// not cover the graph's nodes or the returned sets is ErrBadSource.
func TestCollectionSourceIndex(t *testing.T) {
	g := gen.BarabasiAlbert(250, 3, rng.New(3))
	graph.AssignWeightedCascade(g)
	run := func(src CollectionSource, q *query.Spec) (*Result, error) {
		return Maximize(g, diffusion.NewIC(), Options{K: 10, Epsilon: 0.3, Seed: 9, Source: src, Query: q})
	}
	for _, q := range []*query.Spec{nil, {Exclude: []uint32{0, 1, 2}, Force: []uint32{7}}} {
		want, err := run(&recordingSource{seed: 42}, q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := run(indexedSource{seed: 42, extra: 500}, q)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Seeds) != fmt.Sprint(want.Seeds) || got.Theta != want.Theta ||
			got.SpreadEstimate != want.SpreadEstimate {
			t.Fatalf("indexed source: seeds %v θ=%d spread %v, per-call index: %v θ=%d spread %v",
				got.Seeds, got.Theta, got.SpreadEstimate, want.Seeds, want.Theta, want.SpreadEstimate)
		}
	}
	for _, bad := range []indexedSource{{seed: 42, nodes: 1}, {seed: 42, extra: 5, short: 6}} {
		if _, err := run(bad, nil); !errors.Is(err, ErrBadSource) {
			t.Fatalf("%+v: want ErrBadSource, got %v", bad, err)
		}
	}
}
