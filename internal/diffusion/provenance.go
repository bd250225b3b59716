package diffusion

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// Edge provenance for RR sets.
//
// A traced sample records, alongside the members of the RR set, its
// discovery edges: the edges of G whose reverse traversal brought a new
// node into the set (the reverse-BFS tree under IC and the general
// triggering model, the chain edges under LT). Provenance is what lets an
// evolving-graph maintainer reason about which sampled sets a specific
// edge deletion could have influenced (internal/evolve.DeltaImpact): a
// deleted edge that no trace used cannot have changed any set's
// membership, which bounds from below how many sets a mutation batch
// really perturbed.
//
// Tracing changes no random draws: SampleTraced consumes the rng stream
// exactly as Sample does, so a traced and an untraced sample from the
// same stream return identical member sets. That equivalence
// is asserted by TestSampleTracedMatchesSample.

// TraceEdge is one discovery edge, directed as in G: the traversal
// reached From while expanding To (reverse BFS walks edges backwards).
type TraceEdge struct {
	From, To uint32
}

// TraceCollection is a flat arena of per-set traces, parallel to an
// RRCollection: the discovery edges of set i live at Flat[Off[i]:Off[i+1]].
// Set i with k members always has exactly k−1 discovery edges.
type TraceCollection struct {
	Flat []TraceEdge
	Off  []int64
}

// Count returns the number of traced sets.
func (c *TraceCollection) Count() int { return len(c.Off) - 1 }

// Set returns the discovery edges of set i (aliasing internal storage).
func (c *TraceCollection) Set(i int) []TraceEdge { return c.Flat[c.Off[i]:c.Off[i+1]] }

// Append adds one trace.
func (c *TraceCollection) Append(trace []TraceEdge) {
	if len(c.Off) == 0 {
		c.Off = append(c.Off, 0)
	}
	c.Flat = append(c.Flat, trace...)
	c.Off = append(c.Off, int64(len(c.Flat)))
}

// MemoryBytes returns the approximate heap bytes held by the collection.
func (c *TraceCollection) MemoryBytes() int64 {
	return int64(cap(c.Flat))*8 + int64(cap(c.Off))*8
}

// SampleTraced generates one RR set like Sample while also appending its
// discovery edges to trace. The rng consumption is identical to Sample's,
// so for the same stream the member set is bit-identical.
func (s *RRSampler) SampleTraced(r *rng.Rand, dst []uint32, trace []TraceEdge) ([]uint32, []TraceEdge) {
	root := uint32(r.Intn(s.g.N()))
	return s.SampleFromTraced(r, root, dst, trace)
}

// SampleFromTraced is SampleTraced with an explicit root.
func (s *RRSampler) SampleFromTraced(r *rng.Rand, root uint32, dst []uint32, trace []TraceEdge) ([]uint32, []TraceEdge) {
	switch s.model.kind {
	case IC:
		return s.sampleICTraced(r, root, dst, trace)
	case LT:
		return s.sampleLTTraced(r, root, dst, trace)
	default:
		return s.sampleTriggeringTraced(r, root, dst, trace)
	}
}

// sampleICTraced mirrors sampleIC; a discovery edge is recorded exactly
// when a retained coin brings an unvisited node in.
func (s *RRSampler) sampleICTraced(r *rng.Rand, root uint32, dst []uint32, trace []TraceEdge) ([]uint32, []TraceEdge) {
	s.nextEpoch()
	g, mark, epoch := s.g, s.mark, s.epoch
	start := len(dst)
	mark[root] = epoch
	dst = append(dst, root)
	for head := start; head < len(dst); head++ {
		v := dst[head]
		src, w := g.InNeighbors(v)
		for i := range src {
			u := src[i]
			if mark[u] == epoch {
				continue
			}
			if r.Bernoulli32(w[i]) {
				mark[u] = epoch
				dst = append(dst, u)
				trace = append(trace, TraceEdge{From: u, To: v})
			}
		}
	}
	return dst, trace
}

// sampleLTTraced mirrors sampleLT; each chain step is a discovery edge.
func (s *RRSampler) sampleLTTraced(r *rng.Rand, root uint32, dst []uint32, trace []TraceEdge) ([]uint32, []TraceEdge) {
	s.nextEpoch()
	g, mark, epoch := s.g, s.mark, s.epoch
	mark[root] = epoch
	dst = append(dst, root)
	v := root
	for {
		src, w := g.InNeighbors(v)
		if len(src) == 0 {
			return dst, trace
		}
		x := r.Float32()
		var acc float32
		next := uint32(0)
		found := false
		for i := range src {
			acc += w[i]
			if x < acc {
				next = src[i]
				found = true
				break
			}
		}
		if !found {
			return dst, trace
		}
		if mark[next] == epoch {
			return dst, trace
		}
		mark[next] = epoch
		dst = append(dst, next)
		trace = append(trace, TraceEdge{From: next, To: v})
		v = next
	}
}

// sampleTriggeringTraced mirrors sampleTriggering; a discovery edge is
// recorded when an unvisited member of v's triggering set joins the set.
func (s *RRSampler) sampleTriggeringTraced(r *rng.Rand, root uint32, dst []uint32, trace []TraceEdge) ([]uint32, []TraceEdge) {
	s.nextEpoch()
	g, mark, epoch := s.g, s.mark, s.epoch
	start := len(dst)
	mark[root] = epoch
	dst = append(dst, root)
	for head := start; head < len(dst); head++ {
		v := dst[head]
		s.trig = s.model.trigger.AppendTrigger(s.trig[:0], g, v, r)
		for _, u := range s.trig {
			if mark[u] != epoch {
				mark[u] = epoch
				dst = append(dst, u)
				trace = append(trace, TraceEdge{From: u, To: v})
			}
		}
	}
	return dst, trace
}

// edgeExists reports whether g has at least one u→v edge. Helper for
// trace-validity checks; O(indeg(v)).
func edgeExists(g *graph.Graph, u, v uint32) bool {
	src, _ := g.InNeighbors(v)
	for _, s := range src {
		if s == u {
			return true
		}
	}
	return false
}
