package diffusion

import (
	"context"
	"runtime"

	"repro/internal/graph"
)

// RRCollection is a flat arena of RR sets: the members of set i live at
// Flat[Off[i]:Off[i+1]]. Flat storage keeps millions of small sets cheap
// for the garbage collector and makes the Figure 12 memory accounting
// exact.
type RRCollection struct {
	Flat []uint32
	Off  []int64
}

// Count returns the number of RR sets.
func (c *RRCollection) Count() int { return len(c.Off) - 1 }

// Set returns the members of set i (aliasing internal storage).
func (c *RRCollection) Set(i int) []uint32 { return c.Flat[c.Off[i]:c.Off[i+1]] }

// TotalNodes returns Σ |R_i|.
func (c *RRCollection) TotalNodes() int64 { return int64(len(c.Flat)) }

// MemoryBytes returns the approximate heap bytes held by the collection.
func (c *RRCollection) MemoryBytes() int64 {
	return int64(cap(c.Flat))*4 + int64(cap(c.Off))*8
}

// Append adds one RR set.
func (c *RRCollection) Append(rr []uint32) {
	if len(c.Off) == 0 {
		c.Off = append(c.Off, 0)
	}
	c.Flat = append(c.Flat, rr...)
	c.Off = append(c.Off, int64(len(c.Flat)))
}

// Merge appends all sets of other to c.
func (c *RRCollection) Merge(other *RRCollection) {
	if len(c.Off) == 0 {
		c.Off = append(c.Off, 0)
	}
	base := int64(len(c.Flat))
	c.Flat = append(c.Flat, other.Flat...)
	for _, off := range other.Off[1:] {
		c.Off = append(c.Off, base+off)
	}
}

// SampleOptions configures batch RR-set generation.
type SampleOptions struct {
	// Workers is the number of sampling goroutines (default GOMAXPROCS).
	Workers int
	// Seed selects the random stream. Batches that must be independent
	// should use distinct seeds.
	Seed uint64
	// Ctx, when non-nil, lets callers cancel a long sampling run: workers
	// poll it periodically and stop early, so the returned collection may
	// hold fewer than count sets. Callers that need to distinguish a
	// cancelled partial result should check Ctx.Err() afterwards.
	Ctx context.Context
	// Config selects the sampling scenario (root distribution, diffusion
	// horizon). The zero value is the paper's default and is bit-identical
	// to pre-config sampling.
	Config SampleConfig
}

func (o *SampleOptions) normalize(count int64) {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if int64(o.Workers) > count && count > 0 {
		o.Workers = int(count)
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
}

// SampleCollection generates count random RR sets in parallel and returns
// them as one collection. Set i is drawn from the keyed stream
// rng.New(Seed).Split(i) — the same per-index scheme ExtendCollection
// uses — so the result is deterministic for fixed (count, Seed) and
// byte-identical for every worker count: SampleCollection equals
// ExtendCollection on an empty collection with the same seed, which also
// makes freshly sampled collections prefix-extendable and incrementally
// repairable (internal/evolve) with no translation step.
//
// Workers write into the final arena through the zero-copy sharded path
// (see extendInto): there is no per-worker private collection and no
// serial merge, so peak memory during sampling is the arena itself plus
// O(Workers) small chunk buffers.
func SampleCollection(g *graph.Graph, model Model, count int64, opts SampleOptions) *RRCollection {
	out := &RRCollection{Off: []int64{0}}
	if count <= 0 || g.N() == 0 {
		return out
	}
	opts.normalize(count)
	// A cancelled context keeps the contiguous flushed prefix: the caller
	// asked for a best-effort partial collection, not an error.
	_ = extendInto(opts.Ctx, g, model, opts.Config, out, 0, count, opts.Seed, opts.Workers, true)
	return out
}
