package diskrr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/diffusion"
	"repro/internal/fault"
	"repro/internal/graph"
)

// This file is the server-facing half of the package: the spill-tier
// file format the rr-store (internal/server) demotes evicted
// collections into and promotes them back from. Unlike the Writer/
// Collection pair in diskrr.go — which streams a single-run collection
// that dies with the run — a spill-tier file is a complete,
// self-describing snapshot of an in-memory diffusion.RRCollection,
// pinned to the (graph version, sampling profile, entry seed) it was
// derived under so a reader can tell exactly what it is holding.
//
// Format (all integers little-endian):
//
//	magic   8 bytes  "RRSPILL2"
//	header  5 × u64  version, profile hash, entry seed,
//	                 set count, total nodes
//	records count ×  u32 set length | length × u32 node ids
//
// The records are exactly the Writer's records; only the header is
// extra. A file therefore holds 48 + 4·(count + total nodes) bytes.
// The totals in the header are redundant with the records on purpose:
// WriteSpill sizes the file exactly, so ReadSpill can verify
// size(file) == size(header) before allocating anything — a truncated
// or padded file fails typed (graph.ErrTruncated / ErrSpillFormat)
// without a single record being parsed.
//
// Crash safety follows the package's no-debris contract: WriteSpill
// streams into an rrspill-*.tmp sibling and renames it over the final
// path only after a successful flush+fsync, so a crash mid-demotion
// leaves at worst a .tmp file that PurgeSpillDir removes at the next
// startup. A write failure removes the temp file and reports an error
// wrapping ErrSpill, exactly like Writer.

// ErrSpillFormat tags structural spill-file corruption that is not a
// truncation: a bad magic, totals that disagree with the records,
// trailing bytes, or a node id outside the graph. The rr-store treats it
// (like any read failure) as a cache miss: drop the file, resample cold.
var ErrSpillFormat = errors.New("diskrr: malformed spill file")

// spillMagic identifies (and versions) the spill-tier format.
const spillMagic = "RRSPILL2"

// spillHeaderSize is magic + five u64 header fields.
const spillHeaderSize = len(spillMagic) + 5*8

// SpillHeader pins the identity of a spilled collection: the graph
// version its sets were derived at, the compiled sampling-profile hash
// of its key (0 = unconstrained), and the rr-store entry seed. The
// reader hands it back verbatim; the rr-store compares it against the
// promoting entry and discards on any mismatch — a stale or foreign
// spill is never silently served.
type SpillHeader struct {
	Version     uint64
	ProfileHash uint64
	Seed        uint64
}

// spillFileSize is the exact byte size of a spill file holding the
// given record shape.
func spillFileSize(count, totalNodes int64) int64 {
	return int64(spillHeaderSize) + 4*(count+totalNodes)
}

// WriteSpill atomically writes col to path, returning the file's byte
// size. It goes through the same FaultSpillWrite/FaultSpillSync points
// as Writer, and on any failure removes its temporary file and returns
// an error wrapping ErrSpill — never leaving debris, never a
// half-written file at path.
func WriteSpill(path string, hdr SpillHeader, col *diffusion.RRCollection) (int64, error) {
	count := int64(col.Count())
	f, err := os.CreateTemp(filepath.Dir(path), "rrspill-*.tmp")
	if err != nil {
		return 0, fmt.Errorf("%w: %v", ErrSpill, err)
	}
	tmp := f.Name()
	fail := func(err error) (int64, error) {
		f.Close()
		os.Remove(tmp)
		return 0, fmt.Errorf("%w: %v", ErrSpill, err)
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	write := func(p []byte) error {
		if err := fault.Hit(FaultSpillWrite); err != nil {
			return err
		}
		_, err := bw.Write(p)
		return err
	}
	var scratch [8]byte
	if err := write([]byte(spillMagic)); err != nil {
		return fail(err)
	}
	totalNodes := col.TotalNodes()
	for _, v := range []uint64{hdr.Version, hdr.ProfileHash, hdr.Seed, uint64(count), uint64(totalNodes)} {
		binary.LittleEndian.PutUint64(scratch[:], v)
		if err := write(scratch[:]); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < int(count); i++ {
		if err := writeRecord(write, scratch[:4], col.Set(i)); err != nil {
			return fail(err)
		}
	}
	if err := fault.Hit(FaultSpillWrite); err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := fault.Hit(FaultSpillSync); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("%w: %v", ErrSpill, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return 0, fmt.Errorf("%w: %v", ErrSpill, err)
	}
	return spillFileSize(count, totalNodes), nil
}

// ReadSpill loads a spill file back into a fresh in-memory collection
// over a graph of n nodes. Corruption is typed: a file that ends early
// (at any byte) fails wrapping graph.ErrTruncated; a bad magic,
// inconsistent totals, trailing bytes, or a node id ≥ n fail wrapping
// ErrSpillFormat. The header's totals are checked against the file size
// before any allocation, so a corrupt header cannot trigger a huge
// allocation.
func ReadSpill(path string, n int) (SpillHeader, *diffusion.RRCollection, error) {
	var hdr SpillHeader
	f, err := os.Open(path)
	if err != nil {
		return hdr, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return hdr, nil, err
	}
	if st.Size() < int64(spillHeaderSize) {
		return hdr, nil, fmt.Errorf("%w: %d-byte spill file is shorter than its header", graph.ErrTruncated, st.Size())
	}
	br := bufio.NewReaderSize(f, 1<<20)
	raw := make([]byte, spillHeaderSize)
	if _, err := io.ReadFull(br, raw); err != nil {
		return hdr, nil, fmt.Errorf("diskrr: reading spill header: %w", truncErr(err))
	}
	if string(raw[:len(spillMagic)]) != spillMagic {
		return hdr, nil, fmt.Errorf("%w: bad magic %q", ErrSpillFormat, raw[:len(spillMagic)])
	}
	u64 := func(i int) uint64 {
		return binary.LittleEndian.Uint64(raw[len(spillMagic)+8*i:])
	}
	hdr = SpillHeader{Version: u64(0), ProfileHash: u64(1), Seed: u64(2)}
	// Every record costs at least its 4-byte length and every node id 4
	// more, so neither total can exceed the body's word count. Bounding
	// them before spillFileSize multiplies keeps a huge header value from
	// wrapping around to a size that matches.
	words := uint64(st.Size()-int64(spillHeaderSize)) / 4
	if u64(3) > words || u64(4) > words {
		return hdr, nil, fmt.Errorf("%w: header describes %d sets and %d nodes, the %d-byte file cannot hold them",
			graph.ErrTruncated, u64(3), u64(4), st.Size())
	}
	count, totalNodes := int64(u64(3)), int64(u64(4))
	switch want := spillFileSize(count, totalNodes); {
	case st.Size() < want:
		return hdr, nil, fmt.Errorf("%w: spill file is %d bytes, header describes %d", graph.ErrTruncated, st.Size(), want)
	case st.Size() > want:
		return hdr, nil, fmt.Errorf("%w: %d trailing bytes after the last record", ErrSpillFormat, st.Size()-want)
	}
	col := &diffusion.RRCollection{
		Flat: make([]uint32, 0, totalNodes),
		Off:  make([]int64, 1, count+1),
	}
	var body []byte
	for i := int64(0); i < count; i++ {
		col.Flat, body, err = readRecord(br, i, totalNodes-int64(len(col.Flat)), col.Flat, body)
		if err != nil {
			return hdr, nil, err
		}
		col.Off = append(col.Off, int64(len(col.Flat)))
	}
	if int64(len(col.Flat)) != totalNodes {
		return hdr, nil, fmt.Errorf("%w: records hold %d nodes, header says %d", ErrSpillFormat, len(col.Flat), totalNodes)
	}
	for i, v := range col.Flat {
		if int64(v) >= int64(n) {
			return hdr, nil, fmt.Errorf("%w: node id %d at position %d is outside the %d-node graph", ErrSpillFormat, v, i, n)
		}
	}
	return hdr, col, nil
}

// PurgeSpillDir removes every spill-tier artifact in dir — finished
// spill files, torn .tmp files from a crash mid-demotion, and mmap
// backing files (graph.MmapBacked) whose process died before unlinking
// them. The spill tier is a volatile cache (its index lives in server
// memory and dies with the process), so startup purges wholesale:
// recovery serves from a cold resample, bit-identical by keyed
// sampling seeds. Returns the number of files removed.
func PurgeSpillDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, nil
		}
		return 0, err
	}
	removed := 0
	var firstErr error
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "rrspill-") && !strings.HasPrefix(name, "csrmmap-") {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		removed++
	}
	return removed, firstErr
}
