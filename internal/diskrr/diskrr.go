// Package diskrr provides disk-backed storage for reverse-reachable set
// collections, plus an out-of-core greedy maximum-coverage selector.
//
// Motivation: §7.4 of the paper shows that TIM+'s memory is dominated by
// the RR collection R (λ/KPT⁺ sets, ∝ 1/ε²), and §8 names "massive
// graphs that do not fit in the main memory of a single machine" as
// future work. This package removes R from the residency requirement:
// RR sets stream to a temporary file as they are sampled, and node
// selection runs in k+1 sequential passes over the file, holding only
// O(n) counters and a covered-set bitmap in memory.
//
// The trade-off is explicit: selection cost grows from O(Σ|R|) to
// O(k·Σ|R|) sequential I/O, in exchange for an O(n + θ/8)-byte resident
// set. BenchmarkAblationOutOfCore quantifies it.
//
// The package serves two callers. The Writer/Collection/GreedyOutOfCore
// half below is the original offline path: one *single-run* collection
// streamed out of memory and deleted with the run, never repaired or
// shared. The spill-tier half (spill.go) is the server's second storage
// tier: when the rr-store (internal/server) evicts a warm collection, it
// demotes the arena to a self-describing spill file — header-pinned to
// the graph version, sampling profile, and entry seed it was derived
// under — and the next query on that key promotes it back into a fresh
// arena and prefix-extends it, bit-identical to never having been
// evicted. Spill-tier files are cached, repaired after promotion like
// any warm collection, and shared by every query on their key.
//
// Both formats share one record layout — u32 set length, then that many
// u32 node ids, little-endian — written by writeRecord and read by
// readRecord. They differ only in the header: the offline file has none
// (its Collection keeps the totals in memory), the spill-tier file
// starts with a magic and five u64 fields.
//
// Corrupt or truncated spill data surfaces as typed errors consistent
// with graph.ReadBinary's: a file that ends mid-record wraps
// graph.ErrTruncated, and a record that overruns the node total or a
// node id outside the graph wraps ErrSpillFormat. Failures on the write
// side (a full disk, a dying device) wrap ErrSpill, and the writer
// removes its partial file before reporting them — a failed spill never
// leaves debris for the caller to clean up or a later run to trip over.
package diskrr

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/fault"
	"repro/internal/graph"
)

// ErrSpill tags every spill-write failure (Append or Finish). By the
// time a caller sees an error wrapping it, the partial spill file has
// already been closed and removed.
var ErrSpill = errors.New("diskrr: spill write failed")

// Fault points (see internal/fault). Unarmed they cost one atomic load;
// tests arm them to fail spill I/O at chosen operations.
const (
	// FaultSpillWrite is consulted before every buffered write in Append
	// and before the flush in Finish.
	FaultSpillWrite = "diskrr/spill-write"
	// FaultSpillSync is consulted before the fsync in Finish.
	FaultSpillSync = "diskrr/spill-sync"
)

// Writer streams RR sets into a temporary file.
type Writer struct {
	f   *os.File
	bw  *bufio.Writer
	rec []byte

	count      int64
	totalNodes int64
	closed     bool
	failErr    error // sticky ErrSpill-wrapped failure; file already removed
}

// NewWriter creates a spill file in dir (empty dir = the OS temp
// directory).
func NewWriter(dir string) (*Writer, error) {
	f, err := os.CreateTemp(dir, "rrspill-*.bin")
	if err != nil {
		return nil, fmt.Errorf("diskrr: creating spill file: %w", err)
	}
	return &Writer{
		f:   f,
		bw:  bufio.NewWriterSize(f, 1<<20),
		rec: make([]byte, 4),
	}, nil
}

// Append writes one RR set. On a write failure the spill file is
// removed and the writer is dead: the error (wrapping ErrSpill) is
// sticky and every later call returns it.
func (w *Writer) Append(rr []uint32) error {
	if w.closed {
		if w.failErr != nil {
			return w.failErr
		}
		return errors.New("diskrr: append after Finish")
	}
	if err := writeRecord(w.write, w.rec, rr); err != nil {
		return w.fail(err)
	}
	w.count++
	w.totalNodes += int64(len(rr))
	return nil
}

// writeRecord emits one record — u32 set length, then the node ids —
// through write, using word (4 bytes) as scratch. Both formats write
// their records here, so every word passes the caller's FaultSpillWrite
// point.
func writeRecord(write func([]byte) error, word []byte, rr []uint32) error {
	binary.LittleEndian.PutUint32(word, uint32(len(rr)))
	if err := write(word); err != nil {
		return err
	}
	for _, v := range rr {
		binary.LittleEndian.PutUint32(word, v)
		if err := write(word); err != nil {
			return err
		}
	}
	return nil
}

// readRecord reads one record from br and appends its node ids to dst;
// body is reusable scratch for the record's bytes. A record longer than
// room ids fails wrapping ErrSpillFormat before its body is read, so a
// corrupt length never sizes an allocation; a short read fails wrapping
// graph.ErrTruncated. i numbers the record in error messages.
func readRecord(br *bufio.Reader, i, room int64, dst []uint32, body []byte) ([]uint32, []byte, error) {
	var word [4]byte
	if _, err := io.ReadFull(br, word[:]); err != nil {
		return dst, body, fmt.Errorf("diskrr: reading set %d header: %w", i, truncErr(err))
	}
	size := int64(binary.LittleEndian.Uint32(word[:]))
	if size > room {
		return dst, body, fmt.Errorf("%w: set %d (%d nodes) overruns the node total", ErrSpillFormat, i, size)
	}
	if int64(cap(body)) < 4*size {
		body = make([]byte, 4*size)
	}
	body = body[:4*size]
	if _, err := io.ReadFull(br, body); err != nil {
		return dst, body, fmt.Errorf("diskrr: reading set %d body (%d nodes): %w", i, size, truncErr(err))
	}
	for j := int64(0); j < size; j++ {
		dst = append(dst, binary.LittleEndian.Uint32(body[4*j:]))
	}
	return dst, body, nil
}

// write pushes one buffered record through the FaultSpillWrite point.
func (w *Writer) write(p []byte) error {
	if err := fault.Hit(FaultSpillWrite); err != nil {
		return err
	}
	_, err := w.bw.Write(p)
	return err
}

// fail records a write failure: the partial spill file is discarded
// immediately (callers must never see a half-written rrspill-*.bin on
// disk) and the typed error is made sticky.
func (w *Writer) fail(err error) error {
	w.Abort()
	w.failErr = fmt.Errorf("%w: %v", ErrSpill, err)
	return w.failErr
}

// Count returns the number of sets appended so far.
func (w *Writer) Count() int64 { return w.count }

// Finish flushes, fsyncs, and returns the readable collection. The
// writer must not be used afterwards. On failure the spill file is
// removed and the (ErrSpill-wrapping) error is sticky.
func (w *Writer) Finish() (*Collection, error) {
	if w.closed {
		if w.failErr != nil {
			return nil, w.failErr
		}
		return nil, errors.New("diskrr: Finish twice")
	}
	w.closed = true
	if err := fault.Hit(FaultSpillWrite); err != nil {
		return nil, w.fail(err)
	}
	if err := w.bw.Flush(); err != nil {
		return nil, w.fail(err)
	}
	if err := fault.Hit(FaultSpillSync); err != nil {
		return nil, w.fail(err)
	}
	if err := w.f.Sync(); err != nil {
		return nil, w.fail(err)
	}
	return &Collection{
		f:          w.f,
		path:       w.f.Name(),
		count:      w.count,
		totalNodes: w.totalNodes,
	}, nil
}

// Abort discards the spill file. It is idempotent, and calling it
// after a failed Append/Finish (which already aborted) is a no-op.
func (w *Writer) Abort() {
	w.closed = true
	if w.f == nil {
		return
	}
	name := w.f.Name()
	w.f.Close()
	os.Remove(name)
	w.f = nil
}

// Collection is a finished on-disk RR collection.
type Collection struct {
	f          *os.File
	path       string
	count      int64
	totalNodes int64
}

// Count returns the number of RR sets.
func (c *Collection) Count() int64 { return c.count }

// TotalNodes returns Σ|R|.
func (c *Collection) TotalNodes() int64 { return c.totalNodes }

// DiskBytes returns the size of the spill file.
func (c *Collection) DiskBytes() int64 { return 4 * (c.count + c.totalNodes) }

// Close removes the spill file.
func (c *Collection) Close() error {
	err := c.f.Close()
	if rmErr := os.Remove(c.path); err == nil {
		err = rmErr
	}
	return err
}

// Scan streams every RR set through fn in file order. The slice passed
// to fn is reused between calls; fn must not retain it. Returning a
// non-nil error from fn aborts the scan.
func (c *Collection) Scan(fn func(i int64, set []uint32) error) error {
	if _, err := c.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	br := bufio.NewReaderSize(c.f, 1<<20)
	var (
		set  []uint32
		body []byte
		seen int64
		err  error
	)
	for i := int64(0); i < c.count; i++ {
		set, body, err = readRecord(br, i, c.totalNodes-seen, set[:0], body)
		if err != nil {
			return err
		}
		seen += int64(len(set))
		if err := fn(i, set); err != nil {
			return err
		}
	}
	return nil
}

// truncErr maps a short-read error to the shared graph.ErrTruncated
// sentinel (callers can errors.Is one sentinel for every binary format in
// the repo), keeping the underlying detail in the message; other I/O
// errors pass through unchanged.
func truncErr(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", graph.ErrTruncated, err)
	}
	return err
}

// Result mirrors maxcover.Result for the out-of-core selector.
type Result struct {
	Seeds     []uint32
	Covered   int64
	Marginals []int64
}

// GreedyOutOfCore selects k nodes from [0, n) greedily maximizing RR-set
// coverage, in k+1 sequential passes over the spill file. Resident
// memory is O(n) counters plus one bit per set. Tie-breaking is by
// lowest node id (identical to maxcover.GreedyNaive). A stored node id
// ≥ n fails wrapping ErrSpillFormat.
func GreedyOutOfCore(n int, col *Collection, k int) (Result, error) {
	if k > n {
		k = n
	}
	if k < 0 {
		k = 0
	}
	res := Result{
		Seeds:     make([]uint32, 0, k),
		Marginals: make([]int64, 0, k),
	}
	if n == 0 || k == 0 {
		return res, nil
	}
	covered := newBitmap(col.Count())
	selected := make([]bool, n)
	count := make([]int64, n)
	var prevPick int64 = -1
	for len(res.Seeds) < k {
		for i := range count {
			count[i] = 0
		}
		// One pass: retire sets covered by the previous pick, count
		// membership of the live ones.
		err := col.Scan(func(i int64, set []uint32) error {
			if covered.get(i) {
				return nil
			}
			if prevPick >= 0 {
				for _, v := range set {
					if int64(v) == prevPick {
						covered.set(i)
						return nil
					}
				}
			}
			for _, v := range set {
				if int64(v) >= int64(n) {
					return fmt.Errorf("%w: set %d holds node %d, the graph has %d", ErrSpillFormat, i, v, n)
				}
				count[v]++
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		best := int64(-1)
		var bestCount int64
		for v := 0; v < n; v++ {
			if selected[v] {
				continue
			}
			if best < 0 || count[v] > bestCount {
				best, bestCount = int64(v), count[v]
			}
		}
		selected[best] = true
		res.Seeds = append(res.Seeds, uint32(best))
		res.Marginals = append(res.Marginals, bestCount)
		res.Covered += bestCount
		prevPick = best
	}
	return res, nil
}

// bitmap is a simple fixed-size bit set.
type bitmap []uint64

func newBitmap(bits int64) bitmap { return make(bitmap, (bits+63)/64) }

func (b bitmap) get(i int64) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b bitmap) set(i int64) { b[i>>6] |= 1 << (uint(i) & 63) }
