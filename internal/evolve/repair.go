package evolve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/rng"
)

// Incremental RR-collection maintenance.
//
// A collection built by diffusion.ExtendCollection draws set i from the
// keyed stream rng.New(seed).Split(i) — the stream depends on (seed, i)
// only, never on how many sets were sampled or by which worker.
// RepairConfig exploits that: after a graph mutation, re-deriving set i
// from its own stream on the new snapshot yields exactly the set a cold
// sampler would have produced, so a collection where only the affected
// sets are re-derived is bit-identical — members and order — to one
// sampled from scratch on the mutated graph.
//
// Which sets are affected? Reverse-reachable sampling only ever examines
// the in-edge lists of nodes already in the set. A mutation on edge u→v
// (insert, delete, or reweight) changes v's in-edge list and nothing
// else, so a set that does not contain v replays identically: same
// traversal, same coin flips. A set that does contain v must be
// re-derived — even when the mutated edge's coin "would not have
// mattered" — because the sampler consumes its stream sequentially and
// any change to v's in-list shifts every subsequent draw. Node growth
// additionally perturbs the root draw r.Intn(n): RepairConfig replays
// that first draw under both node counts and keeps a set only when the
// root and the post-draw stream state agree. The sets holding a touched
// head are read off the collection's cover index (maxcover.Index): they
// are the union of the heads' posting lists, so finding them reads no
// member ids. RepairConfig maintains the (collection, index) pair: it
// patches the index with the re-derived sets (maxcover.(*Index).Patch)
// before it splices the new arena, so a caller keeping the index never
// re-indexes the sets that did not change. DESIGN.md §8.3 gives the full
// argument, including why per-trace deletion tracking cannot be
// tightened further without abandoning bit-identity.

// ErrUnsupportedModel reports a diffusion model RepairConfig cannot
// maintain incrementally. General triggering models sample through a
// user-supplied TriggerSampler whose stream consumption it cannot reason
// about, so callers must fall back to a cold resample.
var ErrUnsupportedModel = errors.New("evolve: model not supported by incremental repair")

// RepairStats reports what one RepairConfig call did.
type RepairStats struct {
	// Sets is the collection size.
	Sets int64
	// Repaired counts sets re-derived on the new snapshot.
	Repaired int64
	// Reused counts sets kept untouched.
	Reused int64
	// RootChanged counts repaired sets whose root draw changed with the
	// node count (a subset of Repaired).
	RootChanged int64
}

// RepairConfig returns a collection bit-identical to what
// diffusion.ExtendCollectionConfig would sample cold on g (the
// post-mutation snapshot) with the same cfg, seed and count, re-deriving
// only the sets delta could have affected (affectedSets). col is never
// mutated. The model must be IC or LT; g.N() must equal delta.NAfter.
// The zero cfg is the unconstrained sampler of
// diffusion.ExtendCollection. Under a constrained scenario — weighted
// roots, bounded horizon, or both — the affected-set argument carries
// over unchanged: a horizon-capped reverse walk still only examines the
// in-edge lists of nodes it visits, so a set without a touched head
// replays identically. The RootSampler contract requires root draws to
// be graph-independent, so under node growth only uniform-root
// (cfg.Roots == nil) collections need the root-instability check;
// weighted collections skip it entirely.
//
// idx is the cover index of exactly col (maxcover.NewIndex over col, on
// any node count up to g.N()); its posting lists locate the sets holding
// a touched head. RepairConfig repairs the pair: beside the repaired
// collection it returns that collection's index over g.N() nodes, equal
// byte for byte to maxcover.NewIndex of it, patched from idx (one
// rr.index span inside rr.repair). idx itself is only read. The patch
// runs before the new arena is spliced, and idx is dropped in between,
// so a caller that holds no other reference to idx keeps at most one
// index and the two arenas alive at once (DESIGN.md §8.3). Every error
// is raised before the patch, and comes with idx itself in place of
// the new index: it still indexes col, so a caller that handed over its
// only reference gets it back.
func RepairConfig(ctx context.Context, g *graph.Graph, model diffusion.Model, cfg diffusion.SampleConfig, col *diffusion.RRCollection, idx *maxcover.Index, delta Delta, seed uint64, workers int) (*diffusion.RRCollection, *maxcover.Index, RepairStats, error) {
	var stats RepairStats
	switch model.Kind() {
	case diffusion.IC, diffusion.LT:
	default:
		return nil, idx, stats, fmt.Errorf("%w: %v", ErrUnsupportedModel, model)
	}
	count := col.Count()
	if g.N() != delta.NAfter {
		return nil, idx, stats, fmt.Errorf("evolve: snapshot has %d nodes, delta says %d", g.N(), delta.NAfter)
	}
	if idx.Sets() != count {
		return nil, idx, stats, fmt.Errorf("evolve: cover index holds %d sets, collection %d", idx.Sets(), count)
	}
	stats.Sets = int64(count)
	span := obs.StartSpan(ctx, "rr.repair")
	defer func() {
		span.Attr("sets", stats.Sets).Attr("repaired", stats.Repaired).
			Attr("reused", stats.Reused).Attr("root_changed", stats.RootChanged).End()
	}()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Phase 1: identify affected sets.
	base := rng.New(seed)
	todo, rootChanged := affectedSets(idx, delta, seed, cfg.Roots == nil)
	stats.RootChanged = rootChanged
	stats.Repaired = int64(len(todo))
	stats.Reused = stats.Sets - stats.Repaired

	// Phase 2: re-derive the affected sets from their own keyed streams,
	// in parallel. Chunking is arbitrary — each set's bytes depend only on
	// (seed, index, g) — so the result is worker-count independent.
	newSets := make([][]uint32, len(todo))
	if len(todo) > 0 {
		if workers > len(todo) {
			workers = len(todo)
		}
		var wg sync.WaitGroup
		chunk := (len(todo) + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := lo + chunk
			if hi > len(todo) {
				hi = len(todo)
			}
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				sampler := diffusion.AcquireSampler(g, model, cfg)
				defer diffusion.ReleaseSampler(sampler)
				var stream rng.Rand
				for j := lo; j < hi; j++ {
					if ctx != nil && (j-lo)&63 == 0 && ctx.Err() != nil {
						return
					}
					idx := todo[j]
					base.SplitInto(uint64(idx), &stream)
					newSets[j] = sampler.Sample(&stream, nil)
				}
			}(lo, hi)
		}
		wg.Wait()
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, idx, stats, err
			}
		}
	}

	// Patch the index with the re-derived sets while col still holds
	// their old members. Nothing reads idx past the patch, so the old
	// index is garbage before the new arena is allocated; patching after
	// the splice would keep both arenas and both indexes alive at once.
	patchSpan := obs.StartSpan(ctx, "rr.index").Attr("sets", int64(count)).
		Attr("patched", true).Attr("replaced", int64(len(todo))).Attr("appended", int64(0))
	newIdx := idx.Patch(g.N(), col, todo, newSets)
	patchSpan.Attr("bytes", newIdx.MemoryBytes()).End()

	// Phase 3: splice the runs of kept sets and the re-derived sets into
	// a fresh arena: one copy per kept run, whose offsets shift by the
	// run's displacement.
	flatLen := col.Off[count]
	for j, i := range todo {
		flatLen += int64(len(newSets[j])) - (col.Off[i+1] - col.Off[i])
	}
	out := &diffusion.RRCollection{
		Flat: make([]uint32, 0, flatLen),
		Off:  make([]int64, count+1),
	}
	keep := func(lo, hi int) {
		shift := int64(len(out.Flat)) - col.Off[lo]
		out.Flat = append(out.Flat, col.Flat[col.Off[lo]:col.Off[hi]]...)
		for i := lo; i < hi; i++ {
			out.Off[i+1] = col.Off[i+1] + shift
		}
	}
	next := 0 // first set of the current kept run
	for j, i := range todo {
		keep(next, int(i))
		out.Flat = append(out.Flat, newSets[j]...)
		out.Off[i+1] = int64(len(out.Flat))
		next = int(i) + 1
	}
	keep(next, count)
	return out, newIdx, stats, nil
}

// affectedSets returns, ascending, the indices of the sets an exact
// repair must re-derive for delta — sets containing a touched head, plus
// sets whose root draw destabilizes under node growth — together with
// the count of the latter. This is THE affected-set criterion:
// RepairConfig re-derives exactly these indices. idx is the cover index
// of the collection: the sets containing a head are the union of the
// heads' posting lists, and a head at or beyond idx.N() is a node the
// indexed sets predate, so it is in none of them. uniformRoots selects
// whether the root-instability replay applies; weighted-root
// collections (a RootSampler) have no root instability at all, because
// the sampler contract pins root draws to the fixed weight profile,
// never to the node count.
func affectedSets(idx *maxcover.Index, delta Delta, seed uint64, uniformRoots bool) (indices []int32, rootChanged int64) {
	count := idx.Sets()
	var affected []bool
	if uniformRoots {
		affected = rootUnstableSets(count, delta.NBefore, delta.NAfter, seed)
	}
	for _, a := range affected {
		if a {
			rootChanged++
		}
	}
	if affected == nil {
		affected = make([]bool, count)
	}
	for _, h := range delta.Heads {
		if int(h) < idx.N() {
			for _, s := range idx.Posting(h) {
				affected[s] = true
			}
		}
	}
	for i, a := range affected {
		if a {
			indices = append(indices, int32(i))
		}
	}
	return indices, rootChanged
}

// rootUnstableSets marks the sets whose root draw changes between node
// counts nBefore and nAfter (nil when the count is unchanged). A set is
// unstable when the root differs or the post-draw stream state differs —
// Intn's rejection loop can consume a different number of raw draws for
// different n even when it lands on the same root.
func rootUnstableSets(count, nBefore, nAfter int, seed uint64) []bool {
	if nBefore == nAfter {
		return nil
	}
	base := rng.New(seed)
	unstable := make([]bool, count)
	var rOld, rNew rng.Rand
	for i := 0; i < count; i++ {
		base.SplitInto(uint64(i), &rOld)
		rNew = rOld
		if rOld.Intn(nBefore) != rNew.Intn(nAfter) || rOld != rNew {
			unstable[i] = true
		}
	}
	return unstable
}
