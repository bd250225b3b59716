package maxcover

import (
	"sync"
	"sync/atomic"

	"repro/internal/diffusion"
)

// selection is the mutable state of one greedy selection over the
// θ-prefix of an Index: the θ-bit cover bitmap, the selected marks, and
// the coverage counts both greedy rules read through gain.
//
// Counts are computed on demand. count[v] is v's number of uncovered
// sets as of pick epoch evalAt[v]; the epoch advances on every cover, and
// a cover only sets the bits of the picked node's own posting list.
// gain(v) returns the cached count when nothing was covered since it was
// computed, and otherwise recounts v's postings below θ against the
// bitmap. Either way it returns exactly the count that decrementing every
// member of every newly covered set would hold, so the greedy rules pick,
// tie-break and report marginals as they would over eagerly maintained
// counts, while a pick costs its own posting list instead of the members
// of the sets it covers.
//
// Recounts can outgrow those decrements on adversarial input, where every
// pick makes many long posting lists stale and the greedy reads them all.
// So they are capped: once the postings they have read exceed the prefix's
// member count col.Off[θ], the selection turns eager at that epoch. From
// then on cover also decrements the members of each newly covered set,
// which keeps every count computed since the switch exact, and gain
// recounts a node counted before it once, when it is next read. Lazy
// recounts read at most Σ|R| postings plus one list, the recounts after
// the switch at most Σ|R| (one per node), the eager decrements at most
// Σ|R| members, and covers each picked node's list once, so selection
// stays O(Σ|R| + n + k) past the initial prefix counts.
//
// Selections are recycled whole through a process-wide pool: each array
// keeps the capacity of the largest selection it served, so the bitmap,
// the node-indexed arrays and the bucket queue never compete for one
// pooled slice the way differently sized requests to one slice pool do.
type selection struct {
	idx   *Index
	col   *diffusion.RRCollection
	theta uint32

	count    []int64
	evalAt   []uint32
	epoch    uint32
	bits     []uint64
	selected []bool
	// eager is set from epoch eagerFrom on: covers decrement members, and
	// a count computed at or after eagerFrom stays exact.
	eager     bool
	eagerFrom uint32

	// recounted counts the postings gain's recounts read while lazy: the
	// cap's meter. reads counts every posting the selection read after
	// the prefix counts: recounts and covers.
	recounted, reads int64

	q    bucketQueue   // bucketGreedy's scratch
	heap candidateHeap // lazyGreedy's scratch
}

var (
	selections sync.Pool

	// selectionHits and selectionMisses count the arrays reuse served
	// from a pooled selection's capacity and those it had to allocate
	// (part of ScratchPoolStats).
	selectionHits, selectionMisses atomic.Int64
)

// newSelection returns the state of a selection over the θ = col.Count()
// prefix of idx with nothing covered and every count exact: the node's
// number of postings below θ. An eager selection is eager from epoch 0,
// keeping every count exact by decrements throughout.
func newSelection(idx *Index, col *diffusion.RRCollection, eager bool) *selection {
	s := acquireSelection()
	n, theta := idx.N(), col.Count()
	s.idx, s.col, s.theta = idx, col, uint32(theta)
	s.epoch, s.eager, s.eagerFrom, s.recounted, s.reads = 0, eager, 0, 0, 0
	s.count = reuse(s.count, n)
	idx.prefixCounts(theta, s.count)
	s.evalAt = reuse(s.evalAt, n)
	clear(s.evalAt)
	s.bits = reuse(s.bits, (theta+63)/64)
	clear(s.bits)
	s.selected = reuse(s.selected, n)
	clear(s.selected)
	return s
}

// fork returns an independent copy of s in a second pooled selection
// (budget mode runs two passes from one post-force state).
func (s *selection) fork() *selection {
	t := acquireSelection()
	t.idx, t.col, t.theta = s.idx, s.col, s.theta
	t.epoch, t.eager, t.eagerFrom = s.epoch, s.eager, s.eagerFrom
	t.recounted, t.reads = s.recounted, s.reads
	t.count = copyInto(t.count, s.count)
	t.evalAt = copyInto(t.evalAt, s.evalAt)
	t.bits = copyInto(t.bits, s.bits)
	t.selected = copyInto(t.selected, s.selected)
	return t
}

// release returns s to the pool; s must not be used afterwards.
func (s *selection) release() {
	s.idx, s.col = nil, nil // a parked selection must not pin a collection
	scratchPoolBytes.Add(s.bytes())
	selections.Put(s)
}

func acquireSelection() *selection {
	s, _ := selections.Get().(*selection)
	if s == nil {
		return new(selection)
	}
	scratchPoolBytes.Add(-s.bytes())
	return s
}

// bytes returns the heap bytes s's arrays hold, by capacity.
func (s *selection) bytes() int64 {
	return sliceBytes(s.count) + sliceBytes(s.evalAt) + sliceBytes(s.bits) + sliceBytes(s.selected) +
		sliceBytes(s.q.order) + sliceBytes(s.q.next) + sliceBytes(s.q.head) + sliceBytes(s.q.end) +
		sliceBytes(s.heap)
}

// reuse returns s resliced to n when its capacity allows (a pool hit) and
// a fresh slice otherwise (a miss). The contents are unspecified.
func reuse[T any](s []T, n int) []T {
	if cap(s) >= n {
		selectionHits.Add(1)
		return s[:n]
	}
	selectionMisses.Add(1)
	return make([]T, n)
}

// copyInto returns a copy of src in dst's storage, reused as reuse does.
func copyInto[T any](dst, src []T) []T {
	dst = reuse(dst, len(src))
	copy(dst, src)
	return dst
}

// gain returns v's marginal coverage: its number of uncovered sets in the
// θ-prefix. It recounts v unless v was counted since the last cover or,
// eager, since the switch; lazy recounts take the cap once they have read
// more postings than the prefix has members.
func (s *selection) gain(v uint32) int64 {
	if s.evalAt[v] == s.epoch || s.eager && s.evalAt[v] >= s.eagerFrom {
		return s.count[v]
	}
	read := s.recount(v)
	if !s.eager {
		if s.recounted += read; s.recounted > s.col.Off[s.theta] {
			s.eager, s.eagerFrom = true, s.epoch
		}
	}
	return s.count[v]
}

// recount sets count[v] to v's number of uncovered sets at the current
// epoch, from its postings below θ and the cover bitmap, and returns the
// number of postings it read.
func (s *selection) recount(v uint32) int64 {
	p, theta, bits := s.idx.Posting(v), s.theta, s.bits
	var c int64
	i := 0
	for ; i < len(p) && p[i] < theta; i++ {
		if bits[p[i]>>6]&(1<<(p[i]&63)) == 0 {
			c++
		}
	}
	s.count[v], s.evalAt[v] = c, s.epoch
	s.reads += int64(i)
	return int64(i)
}

// cover marks v's uncovered sets in the θ-prefix covered and advances the
// epoch. Eager, it also decrements the counts of those sets' members;
// lazy, it reads nothing but v's posting list.
func (s *selection) cover(v uint32) {
	p, theta, bits := s.idx.Posting(v), s.theta, s.bits
	i := 0
	for ; i < len(p) && p[i] < theta; i++ {
		w, b := p[i]>>6, uint64(1)<<(p[i]&63)
		if s.eager && bits[w]&b == 0 {
			for _, u := range s.col.Set(int(p[i])) {
				s.count[u]--
			}
		}
		bits[w] |= b
	}
	s.reads += int64(i)
	s.epoch++
}

// bucketQueue holds the nodes by coverage count for the bucket greedy
// without per-call allocation. order is a stable counting sort of the
// nodes by initial count (ascending ids within a count) and end[c] the
// end of count c's run in it; head[c] is a LIFO stack of the nodes
// repositioned into bucket c, linked through next.
//
// pop(c) takes the stack first, then the run from its end: the order in
// which a bucket grown by appending — the run, then each repositioned
// node — pops from its end. That holds because a node is repositioned
// only into a bucket strictly below the scan's current one, and the scan
// only moves down: when it reaches bucket c, c holds its run followed by
// its repositions, and nothing enters c afterwards. The same argument
// makes end[c-1], untouched until the scan reaches c-1, the start of c's
// run.
type bucketQueue struct {
	order, next, head, end []uint32
}

// none marks an empty stack in bucketQueue.head and its end in next.
const none = ^uint32(0)

// reset fills q with nodes [0, len(count)) by count and returns the
// largest count.
func (q *bucketQueue) reset(count []int64) int64 {
	var maxCount int64
	for _, c := range count {
		maxCount = max(maxCount, c)
	}
	q.order = reuse(q.order, len(count))
	q.next = reuse(q.next, len(count))
	q.head = reuse(q.head, int(maxCount)+1)
	q.end = reuse(q.end, int(maxCount)+1)
	clear(q.end)
	for _, c := range count {
		q.end[c]++
	}
	// Exclusive prefix sums: end[c] starts as the first slot of c's run
	// and ends one past its last once every node is placed.
	var run uint32
	for c, m := range q.end {
		q.end[c] = run
		run += m
	}
	for v, c := range count {
		q.order[q.end[c]] = uint32(v)
		q.end[c]++
	}
	for c := range q.head {
		q.head[c] = none
	}
	return maxCount
}

// pop removes and returns the next node of bucket c ≥ 1, or reports that
// the bucket is empty.
func (q *bucketQueue) pop(c int64) (uint32, bool) {
	if v := q.head[c]; v != none {
		q.head[c] = q.next[v]
		return v, true
	}
	if q.end[c] > q.end[c-1] {
		q.end[c]--
		return q.order[q.end[c]], true
	}
	return 0, false
}

// push repositions v into bucket c.
func (q *bucketQueue) push(c int64, v uint32) {
	q.next[v] = q.head[c]
	q.head[c] = v
}
