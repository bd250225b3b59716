package diffusion

import (
	"repro/internal/graph"
	"repro/internal/rng"
)

// RRSampler generates random reverse-reachable (RR) sets (Definitions 1
// and 2 of the paper) with a randomized reverse breadth-first search over
// the graph's in-edges (§3.1 "Implementation" and §4.2 for the triggering
// generalization).
//
// A sampler owns reusable scratch buffers, so it is not safe for
// concurrent use; create one per worker goroutine.
type RRSampler struct {
	g     *graph.Graph
	model Model
	cfg   SampleConfig

	mark  []uint32 // mark[v] == epoch ⇔ v visited in the current sample
	epoch uint32
	queue []uint32
	trig  []uint32 // scratch for triggering-set samples
}

// NewRRSampler returns a sampler for the given graph and model under the
// default scenario (uniform roots, unbounded horizon).
func NewRRSampler(g *graph.Graph, model Model) *RRSampler {
	return NewRRSamplerConfig(g, model, SampleConfig{})
}

// NewRRSamplerConfig returns a sampler whose root distribution and
// diffusion horizon follow cfg. A zero cfg consumes the random stream
// exactly as NewRRSampler's sampler does, draw for draw.
func NewRRSamplerConfig(g *graph.Graph, model Model, cfg SampleConfig) *RRSampler {
	return &RRSampler{
		g:     g,
		model: model,
		cfg:   cfg,
		mark:  make([]uint32, g.N()),
		queue: make([]uint32, 0, 64),
	}
}

// nextEpoch advances the visited-mark epoch, clearing marks lazily.
func (s *RRSampler) nextEpoch() {
	s.epoch++
	if s.epoch == 0 {
		// Wrapped: hard reset. Clear the full capacity, not just the
		// current length — a pooled sampler (AcquireSampler) can later be
		// resliced to a larger graph, exposing entries past len that must
		// not alias a live epoch.
		mark := s.mark[:cap(s.mark)]
		for i := range mark {
			mark[i] = 0
		}
		s.epoch = 1
	}
}

// Sample generates one RR set rooted at a random node — uniform by
// default, or drawn from the configured RootSampler — appends its members
// to dst, and returns the extended slice. The set's width w(R) is not
// tracked here: Width recomputes it from the graph where a formula needs
// it (κ(R) in Algorithm 2, the EPT estimate, the RIS cost rule).
func (s *RRSampler) Sample(r *rng.Rand, dst []uint32) []uint32 {
	var root uint32
	if s.cfg.Roots != nil {
		root = s.cfg.Roots.SampleRoot(r)
	} else {
		root = uint32(r.Intn(s.g.N()))
	}
	return s.SampleFrom(r, root, dst)
}

// SampleFrom generates one RR set rooted at the given node.
func (s *RRSampler) SampleFrom(r *rng.Rand, root uint32, dst []uint32) []uint32 {
	switch s.model.kind {
	case IC:
		return s.sampleIC(r, root, dst)
	case LT:
		return s.sampleLT(r, root, dst)
	default:
		return s.sampleTriggering(r, root, dst)
	}
}

// sampleIC is the §3.1 randomized reverse BFS: each in-edge of a visited
// node is retained with its propagation probability.
func (s *RRSampler) sampleIC(r *rng.Rand, root uint32, dst []uint32) []uint32 {
	s.nextEpoch()
	g, mark, epoch := s.g, s.mark, s.epoch
	start := len(dst)
	mark[root] = epoch
	dst = append(dst, root)
	depth, levelEnd := 0, len(dst)
	// The queue is the tail of dst not yet expanded: BFS order preserved.
	for head := start; head < len(dst); head++ {
		if head == levelEnd {
			depth++
			levelEnd = len(dst)
		}
		if s.cfg.MaxHops > 0 && depth >= s.cfg.MaxHops {
			// BFS visits in hop order, so everything still queued sits at
			// the horizon: a member of the set, but never expanded.
			break
		}
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
			}
		}
	}
	return dst
}

// sampleLT walks a single reverse chain: under LT the triggering set of a
// node is at most one in-neighbor, picked with probability equal to the
// edge weight (§4.2; one random number per node visited, which is why LT
// sampling is empirically faster than IC — §7.2 "Results on Large
// Datasets").
func (s *RRSampler) sampleLT(r *rng.Rand, root uint32, dst []uint32) []uint32 {
	s.nextEpoch()
	g, mark, epoch := s.g, s.mark, s.epoch
	mark[root] = epoch
	dst = append(dst, root)
	v := root
	for hops := 0; s.cfg.MaxHops <= 0 || hops < s.cfg.MaxHops; hops++ {
		src, w := g.InNeighbors(v)
		if len(src) == 0 {
			return dst
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
		if !found { // residual probability: empty triggering set
			return dst
		}
		if mark[next] == epoch { // chain closed a cycle
			return dst
		}
		mark[next] = epoch
		dst = append(dst, next)
		v = next
	}
	return dst // horizon reached: chain truncated at MaxHops steps
}

// sampleTriggering is the general §4.2 reverse BFS: for each visited node
// sample its triggering set and enqueue unvisited members.
func (s *RRSampler) sampleTriggering(r *rng.Rand, root uint32, dst []uint32) []uint32 {
	s.nextEpoch()
	g, mark, epoch := s.g, s.mark, s.epoch
	start := len(dst)
	mark[root] = epoch
	dst = append(dst, root)
	depth, levelEnd := 0, len(dst)
	for head := start; head < len(dst); head++ {
		if head == levelEnd {
			depth++
			levelEnd = len(dst)
		}
		if s.cfg.MaxHops > 0 && depth >= s.cfg.MaxHops {
			break
		}
		v := dst[head]
		s.trig = s.model.trigger.AppendTrigger(s.trig[:0], g, v, r)
		for _, u := range s.trig {
			if mark[u] != epoch {
				mark[u] = epoch
				dst = append(dst, u)
			}
		}
	}
	return dst
}

// Width computes w(R) for an arbitrary node set (Equation 1): the number
// of edges in G that point into R, i.e. the total in-degree of its
// members. It is the repo's only width computation — RR collections store
// members only, and the formulas that read w(R) (κ(R) in Algorithm 2, the
// EPT estimate, the RIS cost rule) call it per set.
func Width(g *graph.Graph, rr []uint32) int64 {
	var width int64
	for _, v := range rr {
		width += int64(g.InDegree(v))
	}
	return width
}
