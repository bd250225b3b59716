package diskrr

import (
	"errors"
	"os"
	"strings"
	"testing"

	"repro/internal/fault"
)

// spillSets is a small fixed workload: varied sizes, including an
// empty set (header-only record).
func spillSets() [][]uint32 {
	return [][]uint32{
		{3, 1, 4},
		{},
		{1, 5, 9, 2, 6},
		{7},
		{2, 8, 2, 8},
	}
}

// runSpill drives a full spill session in dir and returns the first
// error (from Append or Finish). On success the collection is closed
// before returning so the directory check below sees steady state.
func runSpill(t *testing.T, dir string) error {
	t.Helper()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range spillSets() {
		if err := w.Append(set); err != nil {
			return err
		}
	}
	col, err := w.Finish()
	if err != nil {
		return err
	}
	return col.Close()
}

// TestSpillWriteFailureEveryPrefix injects a write failure at every
// operation of a spill session — each length header, each node entry,
// and the final flush — and asserts the three contract points: the
// error wraps ErrSpill, no partial rrspill-*.bin survives, and the
// writer stays dead (sticky error) afterwards.
func TestSpillWriteFailureEveryPrefix(t *testing.T) {
	t.Cleanup(fault.Reset)
	boom := errors.New("injected: device dying")

	// First pass: count how many times the write point is consulted on
	// a clean run, so the sweep below covers every prefix exactly.
	h, hits := fault.Counting(func() error { return nil })
	fault.Set(FaultSpillWrite, h)
	if err := runSpill(t, t.TempDir()); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	fault.Reset()
	writes := int(hits.Load())
	sets := spillSets()
	wantWrites := len(sets) + 1 // one header per set, plus Finish's flush
	for _, set := range sets {
		wantWrites += len(set)
	}
	if writes != wantWrites {
		t.Fatalf("clean run hit the write point %d times, want %d", writes, wantWrites)
	}

	for n := 0; n < writes; n++ {
		dir := t.TempDir()
		fault.Set(FaultSpillWrite, fault.FailOn(n, boom))

		w, err := NewWriter(dir)
		if err != nil {
			t.Fatal(err)
		}
		var ferr error
		for _, set := range spillSets() {
			if ferr = w.Append(set); ferr != nil {
				break
			}
		}
		var col *Collection
		if ferr == nil {
			col, ferr = w.Finish()
		}
		fault.Reset()

		if ferr == nil {
			t.Fatalf("n=%d: injected failure never surfaced", n)
		}
		if !errors.Is(ferr, ErrSpill) {
			t.Fatalf("n=%d: error %v does not wrap ErrSpill", n, ferr)
		}
		if !strings.Contains(ferr.Error(), "device dying") {
			t.Fatalf("n=%d: cause lost from %v", n, ferr)
		}
		if col != nil {
			t.Fatalf("n=%d: Finish returned a collection alongside an error", n)
		}
		if left := dirEntries(t, dir); len(left) != 0 {
			t.Fatalf("n=%d: failed spill left partial files %v", n, left)
		}
		// The writer is dead: later calls return the sticky typed error.
		if err := w.Append([]uint32{1}); !errors.Is(err, ErrSpill) {
			t.Fatalf("n=%d: Append after failure = %v, want ErrSpill", n, err)
		}
		if _, err := w.Finish(); !errors.Is(err, ErrSpill) {
			t.Fatalf("n=%d: Finish after failure = %v, want ErrSpill", n, err)
		}
		w.Abort() // explicit Abort after auto-abort must be a harmless no-op

		// The directory is still usable for a fresh spill.
		if err := runSpill(t, dir); err != nil {
			t.Fatalf("n=%d: clean run after failure: %v", n, err)
		}
	}
}

// TestSpillSyncFailure covers the fsync in Finish: all data written,
// the final durability step fails — same contract as a write failure.
func TestSpillSyncFailure(t *testing.T) {
	t.Cleanup(fault.Reset)
	boom := errors.New("injected: fsync failed")
	dir := t.TempDir()
	fault.Set(FaultSpillSync, fault.FailOn(0, boom))

	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, set := range spillSets() {
		if err := w.Append(set); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	col, err := w.Finish()
	fault.Reset()
	if col != nil || !errors.Is(err, ErrSpill) {
		t.Fatalf("Finish = (%v, %v), want (nil, ErrSpill)", col, err)
	}
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Fatalf("failed sync left partial files %v", left)
	}
}

func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}
