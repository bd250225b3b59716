package diskrr

import (
	"errors"
	"os"
	"testing"

	"repro/internal/graph"
)

// buildSpill writes a known collection and returns it plus its file path
// and total byte length.
func buildSpill(t *testing.T) (*Collection, string, int64) {
	t.Helper()
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]uint32{{1, 2, 3}, {4}, {5, 6}, {7, 8, 9, 10}}
	for _, s := range sets {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	col, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { col.Close() })
	return col, col.path, col.DiskBytes()
}

// TestScanTruncationRoundTrip is the typed-error contract: clipping the
// spill file at *every* prefix length must either scan cleanly (full
// length) or fail with an error wrapping graph.ErrTruncated — the same
// sentinel graph.ReadBinary uses — never a panic, a silent short read, or
// an untyped error.
func TestScanTruncationRoundTrip(t *testing.T) {
	col, path, size := buildSpill(t)

	// Sanity: the untruncated file round-trips.
	var scanned int64
	if err := col.Scan(func(i int64, set []uint32) error {
		scanned++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if scanned != col.Count() {
		t.Fatalf("scanned %d of %d sets", scanned, col.Count())
	}

	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(original)) != size {
		t.Fatalf("DiskBytes %d != file size %d", size, len(original))
	}
	for clip := int64(0); clip < size; clip++ {
		if err := os.Truncate(path, clip); err != nil {
			t.Fatal(err)
		}
		err := col.Scan(func(i int64, set []uint32) error { return nil })
		if err == nil {
			t.Fatalf("clip %d: truncated scan succeeded", clip)
		}
		if !errors.Is(err, graph.ErrTruncated) {
			t.Fatalf("clip %d: error %v does not wrap graph.ErrTruncated", clip, err)
		}
		// Restore for the next clip length.
		if err := os.WriteFile(path, original, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestScanCallbackErrorPassthrough: a callback error aborts the scan
// unwrapped — it must stay distinguishable from corruption.
func TestScanCallbackErrorPassthrough(t *testing.T) {
	col, _, _ := buildSpill(t)
	sentinel := errors.New("stop here")
	err := col.Scan(func(i int64, set []uint32) error {
		if i == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || errors.Is(err, graph.ErrTruncated) {
		t.Fatalf("callback error mangled: %v", err)
	}
}
