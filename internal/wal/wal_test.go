package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/evolve"
	"repro/internal/fault"
	"repro/internal/graph"
)

func testBatch(i int) evolve.Batch {
	return evolve.Batch{
		AddNodes: i % 2,
		Inserts:  []graph.Edge{{From: uint32(i), To: uint32(i + 1), Weight: 0.5}},
		Deletes: func() []evolve.EdgeKey {
			if i%2 == 1 {
				return []evolve.EdgeKey{{From: uint32(i - 1), To: uint32(i)}}
			}
			return nil
		}(),
	}
}

func quietOpts() Options {
	return Options{Sync: SyncAlways, Logf: func(string, ...any) {}}
}

// openAppend opens dir and appends records v(from)..v(to).
func openAppend(t testing.TB, dir string, from, to int) {
	t.Helper()
	l, _, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	for v := from; v <= to; v++ {
		if err := l.Append(Record{Version: uint64(v), Batch: testBatch(v)}); err != nil {
			t.Fatalf("append v%d: %v", v, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAppendReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	openAppend(t, dir, 1, 3)
	_, rec, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rec.TornBytes != 0 || rec.Checkpoint != nil || len(rec.Records) != 3 {
		t.Fatalf("recovered %+v", rec)
	}
	for i, r := range rec.Records {
		if r.Version != uint64(i+1) || r.Schema != SchemaVersion {
			t.Fatalf("record %d: %+v", i, r)
		}
		if !reflect.DeepEqual(r.Batch, testBatch(i+1)) {
			t.Fatalf("record %d batch round-trip: %+v", i, r.Batch)
		}
	}
}

// TestCrashAtEveryByte is the core recovery guarantee: truncate the log
// at every possible byte offset — every place a crash could tear it —
// and recovery must (a) never error, (b) yield exactly the longest
// prefix of fully-framed records, (c) clip the tail with TornBytes set
// iff the cut was mid-frame, and (d) leave a log that accepts new
// appends which survive another reopen.
func TestCrashAtEveryByte(t *testing.T) {
	master := t.TempDir()
	openAppend(t, master, 1, 3)
	full, err := os.ReadFile(filepath.Join(master, logName))
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries of the intact log, for computing the expected
	// record count at each cut.
	boundaries := []int{len(logMagic)}
	_, rec, err := Open(master, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	off := len(logMagic)
	for _, r := range rec.Records {
		payload := mustMarshalLen(t, r)
		off += frameHeader + payload
		boundaries = append(boundaries, off)
	}
	if off != len(full) {
		t.Fatalf("frame walk ends at %d, file is %d bytes", off, len(full))
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		var warned bool
		opts := quietOpts()
		opts.Logf = func(string, ...any) { warned = true }
		l, rec, err := Open(dir, opts)
		if err != nil {
			t.Fatalf("cut=%d: recovery errored: %v", cut, err)
		}

		wantRecords := 0
		for i, b := range boundaries {
			if cut >= b {
				wantRecords = i
			}
		}
		if len(rec.Records) != wantRecords {
			t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(rec.Records), wantRecords)
		}
		atBoundary := cut == 0 // an empty file is a clean (fresh) log
		for _, b := range boundaries {
			if cut == b {
				atBoundary = true
			}
		}
		if atBoundary && (rec.TornBytes != 0 || warned) {
			t.Fatalf("cut=%d: clean boundary reported torn (%d bytes)", cut, rec.TornBytes)
		}
		if !atBoundary && (rec.TornBytes == 0 || !warned) {
			t.Fatalf("cut=%d: mid-frame cut not reported torn", cut)
		}

		// The clipped log must accept the next version and keep it.
		next := uint64(wantRecords + 1)
		if err := l.Append(Record{Version: next, Batch: testBatch(int(next))}); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		_, rec2, err := Open(dir, quietOpts())
		if err != nil {
			t.Fatalf("cut=%d: second recovery: %v", cut, err)
		}
		if len(rec2.Records) != wantRecords+1 || rec2.Records[wantRecords].Version != next {
			t.Fatalf("cut=%d: post-append reopen got %d records", cut, len(rec2.Records))
		}
	}
}

func mustMarshalLen(t *testing.T, r Record) int {
	t.Helper()
	l, _, err := Open(t.TempDir(), quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Re-frame through the real encoder by appending to a scratch log.
	r.Version = 1
	if err := l.Append(r); err != nil {
		// Version mismatch with scratch log is fine to surface.
		t.Fatal(err)
	}
	return int(l.Stats().AppendedBytes) - frameHeader
}

func TestCheckpointTruncatesAndRestores(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		if err := l.Append(Record{Version: uint64(v), Batch: testBatch(v)}); err != nil {
			t.Fatal(err)
		}
	}
	edges := []graph.Edge{{From: 0, To: 1}, {From: 2, To: 1}, {From: 1, To: 0}}
	cp := CheckpointFrom("known", 5, edges, 3)
	if err := l.WriteCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats(); got.SizeBytes != int64(len(logMagic)) || got.CheckpointVersion != 3 {
		t.Fatalf("post-checkpoint stats %+v", got)
	}
	for v := 4; v <= 5; v++ {
		if err := l.Append(Record{Version: uint64(v), Batch: testBatch(v)}); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()

	_, rec, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Version != 3 || rec.Checkpoint.Dataset != "known" || rec.Checkpoint.Nodes != 5 {
		t.Fatalf("checkpoint %+v", rec.Checkpoint)
	}
	got, err := rec.Checkpoint.EdgeList()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, edges) {
		t.Fatalf("edge list %+v, want %+v", got, edges)
	}
	if len(rec.Records) != 2 || rec.Records[0].Version != 4 {
		t.Fatalf("tail records %+v", rec.Records)
	}
}

func TestCheckpointGuardsOrphanedRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for v := 1; v <= 2; v++ {
		if err := l.Append(Record{Version: uint64(v), Batch: testBatch(v)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WriteCheckpoint(CheckpointFrom("d", 1, nil, 1)); err == nil {
		t.Fatal("checkpoint below last logged version was accepted")
	}
}

// TestCrashBetweenCheckpointAndTruncate exercises the window where the
// checkpoint has been renamed into place but the log still holds the
// records it covers: recovery must skip them, not replay them twice.
func TestCrashBetweenCheckpointAndTruncate(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	for v := 1; v <= 3; v++ {
		if err := l.Append(Record{Version: uint64(v), Batch: testBatch(v)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("crash before truncate")
	fault.Set(FaultCheckpointTruncate, func() error { return boom })
	if err := l.WriteCheckpoint(CheckpointFrom("d", 4, nil, 3)); !errors.Is(err, boom) {
		t.Fatalf("checkpoint error %v", err)
	}
	fault.Reset()
	l.Close()

	var warnings []string
	opts := quietOpts()
	opts.Logf = func(format string, args ...any) { warnings = append(warnings, format) }
	_, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Checkpoint == nil || rec.Checkpoint.Version != 3 {
		t.Fatalf("checkpoint %+v", rec.Checkpoint)
	}
	if len(rec.Records) != 0 || rec.SkippedRecords != 3 {
		t.Fatalf("records %d skipped %d, want 0/3", len(rec.Records), rec.SkippedRecords)
	}
	found := false
	for _, w := range warnings {
		if strings.Contains(w, "skipped") {
			found = true
		}
	}
	if !found {
		t.Fatal("skip was not logged")
	}
}

func TestAppendWriteFaultRollsBack(t *testing.T) {
	boom := errors.New("disk says no")
	for _, point := range []string{FaultAppendWrite, FaultAppendShortWrite} {
		t.Run(filepath.Base(point), func(t *testing.T) {
			t.Cleanup(fault.Reset)
			dir := t.TempDir()
			l, _, err := Open(dir, quietOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append(Record{Version: 1, Batch: testBatch(1)}); err != nil {
				t.Fatal(err)
			}
			fault.Set(point, fault.FailOn(0, boom))
			if err := l.Append(Record{Version: 2, Batch: testBatch(2)}); !errors.Is(err, boom) {
				t.Fatalf("append error %v", err)
			}
			fault.Reset()
			// The failed append left nothing behind: version 2 is still
			// next, and the retry lands cleanly.
			if err := l.Append(Record{Version: 2, Batch: testBatch(2)}); err != nil {
				t.Fatalf("retry after fault: %v", err)
			}
			l.Close()
			_, rec, err := Open(dir, quietOpts())
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			if rec.TornBytes != 0 {
				t.Fatalf("rollback left a torn tail (%d bytes)", rec.TornBytes)
			}
			if got := len(rec.Records); got != 2 {
				t.Fatalf("%d records after rollback+retry, want 2", got)
			}
		})
	}
}

func TestCrashBeforeSyncBreaksLog(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("fsync lost")
	fault.Set(FaultCrashBeforeSync, func() error { return boom })
	if err := l.Append(Record{Version: 1, Batch: testBatch(1)}); !errors.Is(err, boom) {
		t.Fatalf("append error %v", err)
	}
	fault.Reset()
	// A failed sync poisons the log: nothing it reports can be trusted.
	if err := l.Append(Record{Version: 2, Batch: testBatch(2)}); !errors.Is(err, boom) {
		t.Fatalf("append on broken log: %v", err)
	}
}

func TestReplayAbortFault(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	openAppend(t, dir, 1, 2)
	boom := errors.New("cannot read")
	fault.Set(FaultReplayAbort, func() error { return boom })
	if _, _, err := Open(dir, quietOpts()); !errors.Is(err, boom) {
		t.Fatalf("open error %v", err)
	}
}

func TestDatasetMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Version: 1, Batch: testBatch(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteCheckpoint(CheckpointFrom("alpha", 2, nil, 1)); err != nil {
		t.Fatal(err)
	}
	l.Close()
	opts := quietOpts()
	opts.Dataset = "beta"
	if _, _, err := Open(dir, opts); err == nil {
		t.Fatal("dataset mismatch accepted")
	}
}

func TestSyncPolicies(t *testing.T) {
	for _, p := range []SyncPolicy{SyncAlways, SyncInterval, SyncNone} {
		t.Run(p.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := quietOpts()
			opts.Sync = p
			l, _, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for v := 1; v <= 4; v++ {
				if err := l.Append(Record{Version: uint64(v), Batch: testBatch(v)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, rec, err := Open(dir, quietOpts())
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.Records) != 4 {
				t.Fatalf("%d records under %s", len(rec.Records), p)
			}
		})
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
	for _, s := range []string{"always", "interval", "none"} {
		p, err := ParseSyncPolicy(s)
		if err != nil || p.String() != s {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", s, p, err)
		}
	}
}

func TestOutOfOrderAppendRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Version: 2, Batch: testBatch(2)}); err == nil {
		t.Fatal("append v2 on empty log accepted")
	}
	if err := l.Append(Record{Version: 1, Batch: testBatch(1)}); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(Record{Version: 3, Batch: testBatch(3)}); err == nil {
		t.Fatal("version skip accepted")
	}
}

// FuzzWALRecover: Open recovers any log file without panicking. When it
// succeeds, the records run v1, v2, v3, … with no gap; the file it keeps
// is a prefix of the input made of exactly those records' frames, each
// passing its CRC; TornBytes counts the rest of the input; and a second
// Open of the same directory returns the same records with nothing torn.
func FuzzWALRecover(f *testing.F) {
	dir := f.TempDir()
	openAppend(f, dir, 1, 3)
	valid, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	flipped := bytes.Clone(valid)
	flipped[len(logMagic)+4] ^= 0xff // first byte of the first frame's CRC
	f.Add(flipped)
	huge := []byte(logMagic)
	huge = binary.LittleEndian.AppendUint32(huge, maxPayload)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	f.Add(append(huge, "{}"...))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, logName)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, rec, err := Open(dir, quietOpts())
		if err != nil {
			return
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		for i, r := range rec.Records {
			if r.Version != uint64(i+1) {
				t.Fatalf("record %d has version %d", i, r.Version)
			}
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// A torn file header is rewritten, so none of a shorter input is
		// kept; otherwise the kept file is the valid prefix.
		prefix := len(kept)
		if len(data) < len(logMagic) {
			prefix = 0
		}
		if !bytes.Equal(data[:prefix], kept[:prefix]) {
			t.Fatalf("kept %d bytes that are not a prefix of the input", prefix)
		}
		if rec.TornBytes != int64(len(data)-prefix) {
			t.Fatalf("torn %d bytes of %d, valid prefix %d", rec.TornBytes, len(data), prefix)
		}
		off := len(logMagic)
		for range rec.Records {
			ln := int(binary.LittleEndian.Uint32(kept[off:]))
			payload := kept[off+frameHeader : off+frameHeader+ln]
			if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(kept[off+4:]) {
				t.Fatalf("kept frame at %d fails its CRC", off)
			}
			off += frameHeader + ln
		}
		if off != len(kept) {
			t.Fatalf("%d records' frames end at %d, kept file is %d bytes", len(rec.Records), off, len(kept))
		}

		l, again, err := Open(dir, quietOpts())
		if err != nil {
			t.Fatalf("second recovery: %v", err)
		}
		l.Close()
		if again.TornBytes != 0 || !reflect.DeepEqual(again.Records, rec.Records) {
			t.Fatalf("second recovery: torn %d, %d records (first: %d)", again.TornBytes, len(again.Records), len(rec.Records))
		}
	})
}
