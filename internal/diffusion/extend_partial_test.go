package diffusion

import (
	"context"
	"testing"
	"time"
)

// TestExtendPartialKeepsFlushedPrefix pins the budget-ratchet contract of
// ExtendCollectionConfigPartial: when the context dies mid-extension, the
// contiguous flushed prefix stays in the collection, and — by prefix
// determinism — both the kept prefix and a follow-up extension to the
// full target are bit-identical to an uninterrupted run.
func TestExtendPartialKeepsFlushedPrefix(t *testing.T) {
	g := extendTestGraph()
	model := NewIC()
	const seed, total = 17, 20000

	// Find a deadline that cancels mid-run: start tiny and grow until the
	// extension keeps a strict partial prefix. On a machine fast enough to
	// finish 20k sets inside the smallest deadline the loop just falls
	// through to the complete case, which the invariants below still cover.
	col := &RRCollection{}
	var extErr error
	for deadline := 200 * time.Microsecond; ; deadline *= 2 {
		col = &RRCollection{}
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		extErr = ExtendCollectionConfigPartial(ctx, g, model, SampleConfig{}, col, total, seed, 4)
		cancel()
		if extErr == nil || col.Count() > 0 || deadline > time.Minute {
			break
		}
	}

	kept := col.Count()
	if extErr != nil {
		if kept >= total {
			t.Fatalf("error %v but count %d >= total", extErr, kept)
		}
	} else if kept != total {
		t.Fatalf("no error but count %d != total %d", kept, total)
	}

	// The kept prefix must be exactly what an uninterrupted extension to
	// `kept` sets produces.
	if kept > 0 {
		fresh := &RRCollection{}
		if err := ExtendCollection(context.Background(), g, model, fresh, int64(kept), seed, 2); err != nil {
			t.Fatal(err)
		}
		sameCollection(t, "kept prefix", col, fresh)
	}

	// Resuming the interrupted extension lands on the same bytes as one
	// uninterrupted run to the full target.
	if err := ExtendCollectionConfigPartial(context.Background(), g, model, SampleConfig{}, col, total, seed, 3); err != nil {
		t.Fatal(err)
	}
	oneshot := &RRCollection{}
	if err := ExtendCollection(context.Background(), g, model, oneshot, total, seed, 1); err != nil {
		t.Fatal(err)
	}
	sameCollection(t, "resumed", col, oneshot)
}

// TestExtendPartialNilAndDoneContexts covers the degenerate contexts: nil
// behaves like ExtendCollection, and an already-cancelled context keeps
// nothing but still errors.
func TestExtendPartialNilAndDoneContexts(t *testing.T) {
	g := extendTestGraph()
	model := NewIC()

	col := &RRCollection{}
	if err := ExtendCollectionConfigPartial(nil, g, model, SampleConfig{}, col, 50, 3, 2); err != nil {
		t.Fatal(err)
	}
	if col.Count() != 50 {
		t.Fatalf("count = %d", col.Count())
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := col.Count()
	if err := ExtendCollectionConfigPartial(ctx, g, model, SampleConfig{}, col, 500, 3, 2); err == nil {
		t.Fatal("cancelled context did not error")
	}
	// Workers poll every 64 sets, so a pre-cancelled context may still
	// flush a chunk or two — but never complete the target.
	if col.Count() < before || col.Count() >= 500 {
		t.Fatalf("count = %d after cancelled extension (was %d)", col.Count(), before)
	}
}
