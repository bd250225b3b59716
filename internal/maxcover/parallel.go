package maxcover

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/diffusion"
)

// Parallel selection machinery, shared by Greedy, GreedyConstrained, and
// the refine pass (tim.refineKPT via CountCoveredWorkers).
//
// Everything here is bit-deterministic for every worker count: shards are
// contiguous set ranges, per-shard partial results reduce in fixed shard
// order, and the CSR fill writes each element into a slot precomputed
// from the shard prefix sums — so the arrays (and therefore every greedy
// pick downstream) are byte-identical to the serial build. Workers is an
// execution knob, never part of the answer.
//
// The large per-call arrays — a selection's counts, cover bitmap and
// bucket queue (recycled whole, selection.go), CountCovered seed marks,
// and the CSR arrays of an index built for one call only — come from
// process-wide pools, so a query-serving process stops paying an
// O(n + Σ|R|) allocation tax per selection. An Index built to be kept
// (NewIndex) is allocated directly instead: parking its arrays in a pool
// would keep a second copy warm beside it. ScratchPoolStats exposes the
// reuse counters.

// minParallelFlat is the flat-arena size below which the serial paths
// win: shard bookkeeping and goroutine handoff cost more than the scan.
const minParallelFlat = 1 << 14

// minShardFlat is the smallest flat span worth a dedicated shard.
const minShardFlat = 1 << 12

// effectiveWorkers resolves a Workers knob (≤ 0 = all cores) against the
// work actually available.
func effectiveWorkers(workers, flatLen int) int {
	if workers == 1 || flatLen < minParallelFlat {
		return 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if most := flatLen / minShardFlat; workers > most {
		workers = most
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// setShardBounds splits [0, Count()) into workers contiguous set ranges
// of roughly equal flat (member) volume, so shards balance even when set
// sizes are skewed. bounds has workers+1 entries.
func setShardBounds(col *diffusion.RRCollection, workers int) []int {
	numSets := col.Count()
	bounds := make([]int, workers+1)
	bounds[workers] = numSets
	flatLen := col.Off[numSets]
	for w := 1; w < workers; w++ {
		target := flatLen * int64(w) / int64(workers)
		bounds[w] = sort.Search(numSets, func(s int) bool { return col.Off[s] >= target })
		if bounds[w] < bounds[w-1] {
			bounds[w] = bounds[w-1]
		}
	}
	return bounds
}

// parallelRanges runs fn over workers contiguous ranges of [0, n) and
// waits for all of them.
func parallelRanges(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// Index is the node-selection inverted index over an RR collection: for
// each node v in [0, N()), the ids of the sets containing v, ascending
// (CSR layout: Posting(v) is ids[off[v]:off[v+1]]). It is read-only once
// built, so one Index can serve any number of concurrent selections over
// any θ-prefix of the collection it indexes (GreedyIndex); the per-query
// mutable state — coverage counts and cover bitmaps — lives outside it.
type Index struct {
	sets int
	off  []int64
	ids  []uint32
}

// NewIndex builds the Index of col over nodes [0, n), parallelizing the
// occurrence count and the CSR fill across set shards (workers ≤ 0 = all
// cores; 1 = the serial build). The arrays are allocated for the caller
// to keep — nothing comes from, or returns to, the scratch pools — and
// they are byte-identical for every worker count. Every member of col
// must be below n.
func NewIndex(n int, col *diffusion.RRCollection, workers int) *Index {
	return buildIndex(n, col, workers, false)
}

// N returns the node count the index covers.
func (x *Index) N() int { return len(x.off) - 1 }

// Sets returns the number of RR sets indexed.
func (x *Index) Sets() int { return x.sets }

// Posting returns the ids of the sets containing v, ascending (aliasing
// internal storage; callers must not modify it). v must be below N().
func (x *Index) Posting(v uint32) []uint32 { return x.ids[x.off[v]:x.off[v+1]] }

// MemoryBytes returns the heap bytes held by the index (by capacity); 0
// for a nil index.
func (x *Index) MemoryBytes() int64 {
	if x == nil {
		return 0
	}
	return int64(cap(x.off))*8 + int64(cap(x.ids))*4
}

// prefixCounts writes into count[v] the number of v's postings below
// theta: v's occurrence count in the θ-prefix collection. At theta ==
// Sets() that is the list length; below it, a binary search over the
// ascending list.
func (x *Index) prefixCounts(theta int, count []int64) {
	if theta == x.sets {
		for v := range count {
			count[v] = x.off[v+1] - x.off[v]
		}
		return
	}
	for v := range count {
		i, _ := slices.BinarySearch(x.ids[x.off[v]:x.off[v+1]], uint32(theta))
		count[v] = int64(i)
	}
}

// buildIndex builds the Index of col. With pooled set, off and ids come
// from the scratch pools and the caller must hand them back with release
// once the selection is done (the per-call path of GreedyConstrained);
// otherwise they are allocated for keeping (NewIndex).
func buildIndex(n int, col *diffusion.RRCollection, workers int, pooled bool) *Index {
	workers = effectiveWorkers(workers, len(col.Flat))
	var x Index
	x.sets = col.Count()
	if pooled {
		x.off = i64Pool.get(n + 1)
		clear(x.off)
		x.ids = u32Pool.get(len(col.Flat))
	} else {
		x.off = make([]int64, n+1)
		x.ids = make([]uint32, len(col.Flat))
	}
	off, ids := x.off, x.ids

	if workers == 1 {
		// off[v+1] counts v's occurrences, then the prefix sum turns the
		// counts into CSR offsets in place.
		for _, v := range col.Flat {
			off[v+1]++
		}
		for v := 0; v < n; v++ {
			off[v+1] += off[v]
		}
		fill := i64Pool.get(n)
		copy(fill, off[:n])
		for s := 0; s < x.sets; s++ {
			for _, v := range col.Set(s) {
				ids[fill[v]] = uint32(s)
				fill[v]++
			}
		}
		i64Pool.put(fill)
		return &x
	}

	bounds := setShardBounds(col, workers)
	shard := make([][]int64, workers)
	for w := range shard {
		shard[w] = i64Pool.get(n)
		clear(shard[w])
	}
	// Pass 1: each shard counts occurrences over its contiguous flat span
	// into a private vector.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cnt := shard[w]
			for _, v := range col.Flat[col.Off[bounds[w]]:col.Off[bounds[w+1]]] {
				cnt[v]++
			}
		}(w)
	}
	wg.Wait()
	// Pass 2 (the deterministic reduce): over node ranges, total the
	// shard counts in fixed shard order while converting each shard's
	// entry into its exclusive prefix — the per-shard fill start relative
	// to the node's CSR slot.
	parallelRanges(n, workers, func(lo, hi int) {
		for v := lo; v < hi; v++ {
			var run int64
			for w := 0; w < workers; w++ {
				t := shard[w][v]
				shard[w][v] = run
				run += t
			}
			off[v+1] = run
		}
	})
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Pass 3: parallel CSR fill over the precomputed shard offsets. Shard
	// w's occurrences of node v land at off[v] + prefix_w(v) onward, so
	// the final array is exactly the serial set-major order.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fill := shard[w]
			for s := bounds[w]; s < bounds[w+1]; s++ {
				for _, v := range col.Set(s) {
					ids[off[v]+fill[v]] = uint32(s)
					fill[v]++
				}
			}
		}(w)
	}
	wg.Wait()
	for w := range shard {
		i64Pool.put(shard[w])
	}
	return &x
}

// release hands a pooled index's arrays back to the scratch pools; the
// index must not be used afterwards.
func (x *Index) release() {
	i64Pool.put(x.off)
	u32Pool.put(x.ids)
}

// CountCoveredWorkers is CountCovered parallelized over contiguous set
// ranges (workers ≤ 0 = all cores). The result is identical for every
// worker count. The seed-membership scratch comes from a pool and is
// reset sparsely, so a call costs O(Σ|R| / workers + |seeds|) — not the
// O(n) allocation the refine inner loop used to pay per call.
func CountCoveredWorkers(n int, col *diffusion.RRCollection, seeds []uint32, workers int) int64 {
	numSets := col.Count()
	if numSets == 0 || len(seeds) == 0 {
		return 0
	}
	inSeeds := seedMarks.get(n)
	for _, s := range seeds {
		if int(s) < n {
			inSeeds[s] = true
		}
	}
	workers = effectiveWorkers(workers, len(col.Flat))
	var covered int64
	if workers == 1 {
		for s := 0; s < numSets; s++ {
			for _, v := range col.Set(s) {
				if inSeeds[v] {
					covered++
					break
				}
			}
		}
	} else {
		bounds := setShardBounds(col, workers)
		part := make([]int64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var c int64
				for s := bounds[w]; s < bounds[w+1]; s++ {
					for _, v := range col.Set(s) {
						if inSeeds[v] {
							c++
							break
						}
					}
				}
				part[w] = c
			}(w)
		}
		wg.Wait()
		for _, c := range part {
			covered += c
		}
	}
	// Sparse reset restores the pool invariant (all entries false) in
	// O(|seeds|) instead of a full clear.
	for _, s := range seeds {
		if int(s) < n {
			inSeeds[s] = false
		}
	}
	seedMarks.put(inSeeds)
	return covered
}

// slicePool recycles scratch slices of one element type. Slices are
// stored by pointer (SA6002); get checks capacity and falls back to a
// fresh allocation, so pools never constrain problem size — they only
// recycle. get returns the contents the previous user left: callers clear
// what they read before writing.
type slicePool[T any] struct {
	p            sync.Pool
	hits, misses atomic.Int64
}

func (sp *slicePool[T]) get(n int) []T {
	if v := sp.p.Get(); v != nil {
		s := *(v.(*[]T))
		scratchPoolBytes.Add(-sliceBytes(s))
		if cap(s) >= n {
			sp.hits.Add(1)
			return s[:n]
		}
	}
	sp.misses.Add(1)
	return make([]T, n)
}

func (sp *slicePool[T]) put(s []T) {
	scratchPoolBytes.Add(sliceBytes(s))
	sp.p.Put(&s)
}

// sliceBytes returns the heap bytes s holds, by capacity.
func sliceBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}

var (
	i64Pool slicePool[int64]
	u32Pool slicePool[uint32]
	// seedMarks pools node-membership marks (CountCovered's seeds, the
	// constrained greedy's exclusions) under a stronger invariant: every
	// slice in the pool is all-false over its full capacity, maintained by
	// callers resetting exactly the entries they set. That is what lets a
	// get skip the O(n) clear.
	seedMarks slicePool[bool]

	// scratchPoolBytes approximates bytes parked across the pools and the
	// pooled selections: added on put, subtracted on every get (reused or
	// dropped as too small). sync.Pool may free entries under GC pressure
	// without notice, so this upper-bounds retention; clamped at zero on
	// read.
	scratchPoolBytes atomic.Int64
)

// ScratchPoolStats reports the process-wide selection scratch reuse
// counters across all pools: hits (gets served from a pool) and misses
// (fresh allocations). Exposed for operational visibility (/v1/stats).
func ScratchPoolStats() (hits, misses int64) {
	hits = i64Pool.hits.Load() + u32Pool.hits.Load() + seedMarks.hits.Load() + selectionHits.Load()
	misses = i64Pool.misses.Load() + u32Pool.misses.Load() + seedMarks.misses.Load() + selectionMisses.Load()
	return hits, misses
}

// ScratchPoolBytes reports the approximate bytes of selection scratch
// currently parked across the pools (best effort: the GC may free
// pooled entries without notice, so this upper-bounds retention).
func ScratchPoolBytes() int64 {
	if b := scratchPoolBytes.Load(); b > 0 {
		return b
	}
	return 0
}
