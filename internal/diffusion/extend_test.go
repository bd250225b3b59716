package diffusion

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func extendTestGraph() *graph.Graph {
	g := gen.BarabasiAlbert(300, 3, rng.New(4))
	graph.AssignWeightedCascade(g)
	return g
}

// TestExtendPrefixDeterminism is the reuse-layer contract: extending a
// collection in two steps yields bit-identical sets to one big extension
// with the same seed.
func TestExtendPrefixDeterminism(t *testing.T) {
	g := extendTestGraph()
	model := NewIC()
	const seed, mid, total = 99, 40, 150

	stepwise := &RRCollection{}
	if err := ExtendCollection(context.Background(), g, model, stepwise, mid, seed, 2); err != nil {
		t.Fatal(err)
	}
	if err := ExtendCollection(context.Background(), g, model, stepwise, total, seed, 3); err != nil {
		t.Fatal(err)
	}

	oneshot := &RRCollection{}
	if err := ExtendCollection(context.Background(), g, model, oneshot, total, seed, 1); err != nil {
		t.Fatal(err)
	}

	if stepwise.Count() != total || oneshot.Count() != total {
		t.Fatalf("counts: stepwise=%d oneshot=%d want %d", stepwise.Count(), oneshot.Count(), total)
	}
	for i := 0; i < total; i++ {
		a, b := stepwise.Set(i), oneshot.Set(i)
		if len(a) != len(b) {
			t.Fatalf("set %d: sizes %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d member %d: %d vs %d", i, j, a[j], b[j])
			}
		}
	}
}

// TestExtendNoShrink: asking for fewer sets than present is a no-op.
func TestExtendNoShrink(t *testing.T) {
	g := extendTestGraph()
	col := &RRCollection{}
	if err := ExtendCollection(context.Background(), g, NewIC(), col, 30, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := ExtendCollection(context.Background(), g, NewIC(), col, 10, 1, 1); err != nil {
		t.Fatal(err)
	}
	if col.Count() != 30 {
		t.Fatalf("count=%d, want 30 (no shrink)", col.Count())
	}
}

// TestExtendCancelled: a pre-cancelled context leaves the collection
// untouched and surfaces the context error.
func TestExtendCancelled(t *testing.T) {
	g := extendTestGraph()
	col := &RRCollection{}
	if err := ExtendCollection(context.Background(), g, NewIC(), col, 20, 1, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ExtendCollection(ctx, g, NewIC(), col, 10_000, 1, 1)
	if err == nil {
		t.Fatal("want a context error")
	}
	if col.Count() != 20 {
		t.Fatalf("cancelled extension mutated the collection: count=%d", col.Count())
	}
}

// TestPrefixView: the view exposes exactly the first sets and survives
// later extensions of the parent.
func TestPrefixView(t *testing.T) {
	g := extendTestGraph()
	col := &RRCollection{}
	if err := ExtendCollection(context.Background(), g, NewIC(), col, 25, 7, 1); err != nil {
		t.Fatal(err)
	}
	view := col.Prefix(10)
	wantFirst := append([]uint32(nil), col.Set(0)...)
	if view.Count() != 10 || view.TotalNodes() != col.Off[10] {
		t.Fatalf("view count=%d nodes=%d, want 10/%d", view.Count(), view.TotalNodes(), col.Off[10])
	}
	if err := ExtendCollection(context.Background(), g, NewIC(), col, 500, 7, 4); err != nil {
		t.Fatal(err)
	}
	got := view.Set(0)
	if len(got) != len(wantFirst) {
		t.Fatalf("view set 0 changed size after parent extension")
	}
	for i := range got {
		if got[i] != wantFirst[i] {
			t.Fatal("view set 0 mutated after parent extension")
		}
	}
	if view.Prefix(99).Count() != 10 {
		t.Fatal("Prefix must clamp to the view's own count")
	}
}

// TestSampleCollectionCancel: cancellation mid-run yields a partial
// collection rather than hanging.
func TestSampleCollectionCancel(t *testing.T) {
	g := extendTestGraph()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	col := SampleCollection(g, NewIC(), 100_000, SampleOptions{Workers: 2, Seed: 1, Ctx: ctx})
	if col.Count() >= 100_000 {
		t.Fatalf("cancelled sampling completed anyway: %d sets", col.Count())
	}
}
