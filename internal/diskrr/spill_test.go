package diskrr

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/fault"
	"repro/internal/graph"
)

// testNodes is the node count ReadSpill validates testCollection's ids
// against: one more than the largest id it holds.
const testNodes = 10

// testCollection builds a small in-memory collection with varied set
// sizes, including an empty set (a header-only record).
func testCollection() *diffusion.RRCollection {
	col := &diffusion.RRCollection{Off: []int64{0}}
	for _, s := range spillSets() {
		col.Append(s)
	}
	return col
}

func TestSpillRoundTrip(t *testing.T) {
	col := testCollection()
	hdr := SpillHeader{Version: 7, ProfileHash: 0xabcdef, Seed: 42}
	path := filepath.Join(t.TempDir(), "rrspill-test.bin")
	bytes, err := WriteSpill(path, hdr, col)
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != bytes {
		t.Fatalf("WriteSpill reported %d bytes, file is %d", bytes, st.Size())
	}
	if want := int64(spillHeaderSize) + 4*int64(col.Count()) + 4*col.TotalNodes(); bytes != want {
		t.Fatalf("spill file is %d bytes, want header + 4·(sets + nodes) = %d", bytes, want)
	}
	gotHdr, gotCol, err := ReadSpill(path, testNodes)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr != hdr {
		t.Fatalf("header round trip: got %+v, want %+v", gotHdr, hdr)
	}
	if !reflect.DeepEqual(gotCol.Flat, col.Flat) || !reflect.DeepEqual(gotCol.Off, col.Off) {
		t.Fatalf("collection round trip: got (%v, %v), want (%v, %v)",
			gotCol.Flat, gotCol.Off, col.Flat, col.Off)
	}
}

// TestSpillRecordsMatchWriter: past the spill header, a spill file is
// byte for byte what the offline Writer streams for the same sets — the
// two formats share one record layout.
func TestSpillRecordsMatchWriter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rrspill-records.bin")
	if _, err := WriteSpill(path, SpillHeader{Version: 1}, testCollection()); err != nil {
		t.Fatal(err)
	}
	spilled, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range spillSets() {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	offline, err := os.ReadFile(disk.path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spilled[spillHeaderSize:], offline) {
		t.Fatalf("spill records differ from the Writer's:\nspill:   %v\noffline: %v", spilled[spillHeaderSize:], offline)
	}
}

// TestSpillEmptyCollection: a zero-set collection must round-trip too —
// the rr-store can demote an entry whose first extension never ran.
func TestSpillEmptyCollection(t *testing.T) {
	col := &diffusion.RRCollection{Off: []int64{0}}
	path := filepath.Join(t.TempDir(), "rrspill-empty.bin")
	if _, err := WriteSpill(path, SpillHeader{Version: 1}, col); err != nil {
		t.Fatal(err)
	}
	hdr, gotCol, err := ReadSpill(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 1 || gotCol.Count() != 0 {
		t.Fatalf("empty round trip: hdr %+v, %d sets", hdr, gotCol.Count())
	}
}

// TestSpillReadTruncationEveryByte clips the spill file at every prefix
// length: ReadSpill must fail wrapping graph.ErrTruncated at each —
// never succeed on partial data, never panic, never return untyped.
func TestSpillReadTruncationEveryByte(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rrspill-clip.bin")
	size, err := WriteSpill(path, SpillHeader{Version: 3, Seed: 9}, testCollection())
	if err != nil {
		t.Fatal(err)
	}
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for clip := int64(0); clip < size; clip++ {
		if err := os.WriteFile(path, original[:clip], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadSpill(path, testNodes)
		if err == nil {
			t.Fatalf("clip %d: truncated read succeeded", clip)
		}
		if !errors.Is(err, graph.ErrTruncated) {
			t.Fatalf("clip %d: error %v does not wrap graph.ErrTruncated", clip, err)
		}
	}
}

// TestSpillReadFormatErrors: structural corruption that is not a
// truncation fails wrapping ErrSpillFormat.
func TestSpillReadFormatErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rrspill-corrupt.bin")
	if _, err := WriteSpill(path, SpillHeader{}, testCollection()); err != nil {
		t.Fatal(err)
	}
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func(b []byte) []byte) {
		t.Helper()
		if err := os.WriteFile(path, mutate(append([]byte(nil), original...)), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := ReadSpill(path, testNodes)
		if !errors.Is(err, ErrSpillFormat) {
			t.Fatalf("%s: error %v does not wrap ErrSpillFormat", name, err)
		}
	}
	check("bad magic", func(b []byte) []byte { b[0] ^= 0xff; return b })
	check("trailing bytes", func(b []byte) []byte { return append(b, 0) })
	// Flip a set-length byte: the records no longer sum to the header's
	// totals (the file size check still passes, so this exercises the
	// per-record validation).
	check("length mismatch", func(b []byte) []byte { b[spillHeaderSize] ^= 0x01; return b })
	// The first set's first id (3) becomes the node count itself: one past
	// the last valid id.
	check("id out of range", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[spillHeaderSize+4:], testNodes)
		return b
	})
}

// overflowHeader is a header-only spill file whose set count is 2^62:
// 4·2^62 wraps a 64-bit size computation to exactly 0, so a reader that
// multiplies before bounding sees a file of the expected size and sizes
// its offset array by the bogus count.
func overflowHeader() []byte {
	b := make([]byte, spillHeaderSize)
	copy(b, spillMagic)
	binary.LittleEndian.PutUint64(b[len(spillMagic)+3*8:], 1<<62)
	return b
}

// TestSpillReadOverflowHeader: the wrapping header fails typed instead of
// reaching an allocation.
func TestSpillReadOverflowHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rrspill-overflow.bin")
	if err := os.WriteFile(path, overflowHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadSpill(path, testNodes)
	if !errors.Is(err, graph.ErrTruncated) && !errors.Is(err, ErrSpillFormat) {
		t.Fatalf("overflow header: error %v is untyped", err)
	}
}

// FuzzReadSpill: every input either fails typed (graph.ErrTruncated or
// ErrSpillFormat) or decodes into a valid collection — offsets rising
// from 0 to the arena length, every id below n. No input may panic.
func FuzzReadSpill(f *testing.F) {
	dir := f.TempDir()
	valid := filepath.Join(dir, "rrspill-seed.bin")
	if _, err := WriteSpill(valid, SpillHeader{Version: 2, Seed: 5}, testCollection()); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed, uint16(testNodes))
	f.Add([]byte{}, uint16(testNodes))
	f.Add(overflowHeader(), uint16(testNodes))

	path := filepath.Join(dir, "rrspill-fuzz.bin")
	f.Fuzz(func(t *testing.T, data []byte, n uint16) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, col, err := ReadSpill(path, int(n))
		if err != nil {
			if !errors.Is(err, graph.ErrTruncated) && !errors.Is(err, ErrSpillFormat) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		if len(col.Off) == 0 || col.Off[0] != 0 || col.Off[len(col.Off)-1] != int64(len(col.Flat)) {
			t.Fatalf("offsets %v do not span the %d-id arena", col.Off, len(col.Flat))
		}
		for i := 1; i < len(col.Off); i++ {
			if col.Off[i] < col.Off[i-1] {
				t.Fatalf("offsets fall at set %d: %v", i, col.Off)
			}
		}
		for _, v := range col.Flat {
			if int(v) >= int(n) {
				t.Fatalf("id %d outside the %d-node graph", v, n)
			}
		}
	})
}

// TestWriteSpillFailureEveryPrefix injects a write failure at every
// consultation of the spill-write fault point: the error wraps ErrSpill,
// nothing is left in the directory (no .tmp, no final file), and a
// clean retry afterwards succeeds — the no-debris contract the crash
// smoke relies on.
func TestWriteSpillFailureEveryPrefix(t *testing.T) {
	t.Cleanup(fault.Reset)
	boom := errors.New("injected: disk full")
	col := testCollection()

	h, hits := fault.Counting(func() error { return nil })
	fault.Set(FaultSpillWrite, h)
	cleanDir := t.TempDir()
	if _, err := WriteSpill(filepath.Join(cleanDir, "rrspill-a.bin"), SpillHeader{}, col); err != nil {
		t.Fatalf("clean write failed: %v", err)
	}
	fault.Reset()
	writes := int(hits.Load())
	if writes < 10 {
		t.Fatalf("clean write hit the fault point only %d times", writes)
	}

	for n := 0; n < writes; n++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "rrspill-b.bin")
		fault.Set(FaultSpillWrite, fault.FailOn(n, boom))
		_, err := WriteSpill(path, SpillHeader{}, col)
		fault.Reset()
		if !errors.Is(err, ErrSpill) {
			t.Fatalf("n=%d: error %v does not wrap ErrSpill", n, err)
		}
		if left := dirEntries(t, dir); len(left) != 0 {
			t.Fatalf("n=%d: failed spill left %v", n, left)
		}
		if _, err := WriteSpill(path, SpillHeader{}, col); err != nil {
			t.Fatalf("n=%d: clean retry failed: %v", n, err)
		}
	}

	// The sync point too: all bytes written, durability step fails.
	dir := t.TempDir()
	fault.Set(FaultSpillSync, fault.FailOn(0, boom))
	_, err := WriteSpill(filepath.Join(dir, "rrspill-c.bin"), SpillHeader{}, col)
	fault.Reset()
	if !errors.Is(err, ErrSpill) {
		t.Fatalf("sync failure: error %v does not wrap ErrSpill", err)
	}
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Fatalf("failed sync left %v", left)
	}
}

func TestPurgeSpillDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"rrspill-1.bin", "rrspill-2.tmp", "csrmmap-3.bin", "keep.txt"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := PurgeSpillDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("purged %d files, want 3", removed)
	}
	if left := dirEntries(t, dir); len(left) != 1 || left[0] != "keep.txt" {
		t.Fatalf("directory after purge: %v", left)
	}
	// A missing directory is not an error: the server purges before the
	// first demotion may ever have created it.
	if n, err := PurgeSpillDir(filepath.Join(dir, "nope")); n != 0 || err != nil {
		t.Fatalf("missing dir: (%d, %v)", n, err)
	}
}
