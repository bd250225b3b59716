package diffusion

import (
	"context"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rng"
)

// ExtendCollection grows col so that it holds total RR sets, sampling
// only the missing tail. Set i is always drawn from stream
// rng.New(seed).Split(i), regardless of how many ExtendCollection calls
// produced the collection — so extending to θ₁ and later to θ₂ > θ₁
// yields bit-identical sets to sampling θ₂ in one call with the same
// seed. That prefix determinism is what makes cached RR collections
// reusable across queries with growing θ: a warm cache can never change
// an answer, only skip the sampling a cold run would have done.
//
// Sampling parallelizes over workers with zero-copy sharded writes into
// the collection's own arena (see extendInto), so the result is
// independent of the worker count.
//
// If ctx is non-nil and is cancelled mid-extension, ExtendCollection
// stops early and returns ctx's error with the collection unchanged.
func ExtendCollection(ctx context.Context, g *graph.Graph, model Model, col *RRCollection, total int64, seed uint64, workers int) error {
	return ExtendCollectionConfig(ctx, g, model, SampleConfig{}, col, total, seed, workers)
}

// ExtendCollectionConfig is ExtendCollection under an explicit sampling
// scenario. Prefix determinism holds per (seed, cfg): set i depends only
// on (seed, i, g, model, cfg), so constrained collections — weighted
// roots, bounded horizon — are extendable and repairable exactly like
// default ones, as long as every call on a collection uses the same cfg.
// A zero cfg is bit-identical to ExtendCollection.
func ExtendCollectionConfig(ctx context.Context, g *graph.Graph, model Model, cfg SampleConfig, col *RRCollection, total int64, seed uint64, workers int) error {
	return extendTo(ctx, g, model, cfg, col, total, seed, workers, false)
}

// ExtendCollectionConfigPartial is ExtendCollectionConfig except for its
// cancellation contract: when ctx is cancelled mid-extension, the
// contiguous flushed prefix of the tail is KEPT and ctx's error is
// returned. Because set i depends only on (seed, i, g, model, cfg), the
// kept prefix is exactly what a later extension would re-derive — so
// deadline-bounded callers (the tiered server's budgeted escalations)
// ratchet a shared collection toward θ across deadline misses instead of
// rolling their sampling work back. Callers must treat a non-nil error as
// "col may hold fewer than total sets" and read the kept count from
// col.Count().
func ExtendCollectionConfigPartial(ctx context.Context, g *graph.Graph, model Model, cfg SampleConfig, col *RRCollection, total int64, seed uint64, workers int) error {
	return extendTo(ctx, g, model, cfg, col, total, seed, workers, true)
}

// extendTo is the shared front end of the ExtendCollection family: it
// normalizes an empty collection and the worker count, then samples the
// missing tail [col.Count(), total) through extendInto.
func extendTo(ctx context.Context, g *graph.Graph, model Model, cfg SampleConfig, col *RRCollection, total int64, seed uint64, workers int, keepPartial bool) error {
	if len(col.Off) == 0 {
		col.Off = append(col.Off, 0)
	}
	cur := int64(col.Count())
	if total <= cur || g.N() == 0 {
		return ctxErr(ctx)
	}
	opts := SampleOptions{Workers: workers}
	opts.normalize(total - cur)
	return extendInto(ctx, g, model, cfg, col, cur, total, seed, opts.Workers, keepPartial)
}

// extendChunkSets is the number of RR sets a worker samples per work
// chunk before depositing it for the ordered flush. Small enough that
// in-flight (sampled but not yet flushed) data stays a rounding error
// next to the arena, large enough that the per-chunk mutex handoff is
// amortized away.
const extendChunkSets = 256

// setChunk is one worker's in-flight batch of sampled sets: a private
// mini-arena (flat + relative end offsets). Chunks are recycled through
// the free list for the lifetime of one extendInto call, so steady-state
// sampling allocates nothing per chunk.
type setChunk struct {
	flat []uint32
	ends []int64
}

func (c *setChunk) reset() {
	c.flat = c.flat[:0]
	c.ends = c.ends[:0]
}

// extendInto samples sets [lo, total) from their keyed streams
// (rng.New(seed).Split(i) for set i) directly into col, in index order.
//
// This is the zero-copy sharded sampler: instead of per-worker private
// collections merged serially at the end — which costs a full serial
// memcpy and transiently doubles peak RR memory — workers claim small
// contiguous index chunks from a shared cursor, sample each chunk into a
// recycled buffer, and flush chunks into the final arena strictly in
// index order. Because every set's bytes depend only on (seed, index, g,
// model, cfg) and flushes are ordered, the arena is byte-identical for
// every worker count; because at most maxAhead chunks are ever in flight,
// peak memory is the arena itself plus O(workers) chunk buffers.
//
// The arena is grown once to an estimate of its final size (mean set size
// observed so far × sets remaining), so flushes are plain appends rather
// than repeated geometric reallocation.
//
// On a context error, col is rolled back to its input state unless
// keepPartial is set, in which case the contiguous flushed prefix is kept
// (SampleCollection's cancellation contract).
func extendInto(ctx context.Context, g *graph.Graph, model Model, cfg SampleConfig, col *RRCollection, lo, total int64, seed uint64, workers int, keepPartial bool) error {
	// Keep the input slice values (not just lengths): the rollback path
	// restores them wholesale, so a cancelled extension cannot leave the
	// collection pinning a near-final-capacity arena (or a total+1 offset
	// array) that the caller's memory accounting never sees. Writes past
	// the original lengths never touch the restored prefixes.
	origFlat, origOff := col.Flat, col.Off

	missing := total - lo
	numChunks := (missing + extendChunkSets - 1) / extendChunkSets
	if int64(workers) > numChunks {
		workers = int(numChunks)
	}
	if workers < 1 {
		workers = 1
	}
	span := obs.StartSpan(ctx, "rr.extend").
		Attr("from", lo).Attr("to", total).Attr("workers", int64(workers))
	maxAhead := int64(workers) * 4

	// The set count after this call is known exactly: reserve Off up
	// front so flushing never reallocates it.
	if int64(cap(col.Off)) < total+1 {
		off := make([]int64, len(col.Off), total+1)
		copy(off, col.Off)
		col.Off = off
	}

	base := rng.New(seed)
	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		nextClaim int64 // next chunk index to hand to a worker
		nextFlush int64 // first chunk not yet flushed into col
		pending   = make(map[int64]*setChunk, maxAhead)
		free      []*setChunk
		failed    bool // a worker observed ctx cancellation
	)

	flushLocked := func(ch *setChunk) {
		need := len(col.Flat) + len(ch.flat)
		if need > cap(col.Flat) {
			// Grow to an estimate of the final arena: mean set size over
			// everything flushed so far (including any pre-existing sets)
			// times the sets still to come. The slack decays with the
			// evidence — RR-set sizes are heavy-tailed, so a mean taken
			// over the first chunk alone can undershoot badly, and a
			// re-grow late in the run would transiently hold two
			// near-final arenas (≈ the merge baseline's peak). ~2 relative
			// standard errors of padding makes that rare; when it still
			// happens, the cost is one extra copy-grow, never a wrong
			// result. Peak RR memory therefore stays ≈ one arena.
			setsNow := int64(len(col.Off)) + int64(len(ch.ends)) - 1
			mean := float64(need) / float64(setsNow)
			slack := 1.05 + 1.0/math.Sqrt(float64(setsNow))
			est := need + int(mean*float64(total-setsNow)*slack) + 1024
			if est < need {
				est = need
			}
			grown := make([]uint32, len(col.Flat), est)
			copy(grown, col.Flat)
			col.Flat = grown
		}
		flatBase := int64(len(col.Flat))
		col.Flat = append(col.Flat, ch.flat...)
		for _, end := range ch.ends {
			col.Off = append(col.Off, flatBase+end)
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sampler := AcquireSampler(g, model, cfg)
			defer ReleaseSampler(sampler)
			var stream rng.Rand
			for {
				mu.Lock()
				for nextClaim-nextFlush >= maxAhead && !failed {
					cond.Wait()
				}
				if failed || nextClaim >= numChunks {
					mu.Unlock()
					return
				}
				c := nextClaim
				nextClaim++
				var ch *setChunk
				if n := len(free); n > 0 {
					ch = free[n-1]
					free = free[:n-1]
				} else {
					ch = &setChunk{}
				}
				mu.Unlock()

				start := lo + c*extendChunkSets
				end := start + extendChunkSets
				if end > total {
					end = total
				}
				ch.reset()
				ok := true
				for i := start; i < end; i++ {
					if ctx != nil && (i-start)&63 == 0 && ctx.Err() != nil {
						ok = false
						break
					}
					base.SplitInto(uint64(i), &stream)
					ch.flat = sampler.Sample(&stream, ch.flat)
					ch.ends = append(ch.ends, int64(len(ch.flat)))
				}

				mu.Lock()
				if !ok {
					failed = true
					free = append(free, ch)
					cond.Broadcast()
					mu.Unlock()
					return
				}
				pending[c] = ch
				for {
					ready, exists := pending[nextFlush]
					if !exists {
						break
					}
					delete(pending, nextFlush)
					flushLocked(ready)
					nextFlush++
					free = append(free, ready)
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	// A context that expired only after the last chunk flushed did not
	// cost any sets: the extension is complete, and reporting the late
	// cancellation would make callers discard (or re-account) a full
	// collection.
	if err := ctxErr(ctx); err != nil && nextFlush < numChunks {
		if keepPartial {
			span.Attr("sampled", int64(col.Count())-lo).Attr("partial", true).End()
			return err
		}
		col.Flat, col.Off = origFlat, origOff
		span.Attr("sampled", int64(0)).Attr("rolled_back", true).End()
		return err
	}
	span.Attr("sampled", total-lo).End()
	return nil
}

// ctxErr is ctx.Err() tolerant of a nil context.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Prefix returns a read-only view of the first count sets of c. The view
// aliases c's storage: it stays valid even if c is extended afterwards
// (appends either write past the view's length or relocate into a new
// array), but callers must not mutate it.
func (c *RRCollection) Prefix(count int) *RRCollection {
	if count > c.Count() {
		count = c.Count()
	}
	if count < 0 {
		count = 0
	}
	return &RRCollection{Flat: c.Flat[:c.Off[count]], Off: c.Off[:count+1]}
}
