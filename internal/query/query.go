// Package query is the constrained-query layer of the influence
// maximization system: it turns the one algorithm the pipeline implements
// (RIS sampling + greedy coverage) into a family of serveable scenarios.
//
// A Spec declares, per query, any combination of
//
//   - a targeted audience: per-node weights, with RR-set roots drawn
//     ∝ weight (Borgs et al.'s root-sampling argument holds for any root
//     distribution; the estimator rescales by the total weight W);
//   - a seeding budget: per-node costs and a budget B, solved by the
//     cost-aware lazy greedy in internal/maxcover;
//   - seed constraints: forced-include warm starts and excluded nodes,
//     which reuse existing unweighted RR collections unchanged;
//   - a diffusion deadline: a MaxHops horizon on RR generation
//     (Chen et al.'s time-critical IM as a cap on the reverse walk).
//
// Compile validates a Spec against a graph size and lowers it into the
// pieces each layer consumes: a diffusion.SampleConfig for the samplers, a
// maxcover.Constraints for node selection, the audience mass W that scales
// the estimator, and a profile hash that keys cached RR collections — only
// the parts of a Spec that change sampling (weights, horizon) re-key a
// collection; selection-only constraints (costs, budget, force, exclude)
// deliberately hash to the same profile so warm sketches keep serving
// (DESIGN.md §9.3).
package query

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/maxcover"
	"repro/internal/rng"
)

// ErrBadSpec wraps every Spec validation failure; servers map it to a 4xx
// status and count it as a constraint rejection.
var ErrBadSpec = errors.New("query: invalid constraint spec")

// Spec is one constrained influence-maximization scenario. The zero value
// is the paper's default query (uniform audience, free seeds, unlimited
// time) and compiles to a Compiled that is bit-identical to running
// without a spec at all.
type Spec struct {
	// Weights[v] is the audience weight of node v — how much activating v
	// is worth. nil means uniform. When non-nil, the length must equal the
	// node count at compile time, entries must be finite and non-negative,
	// and at least one must be positive. A uniform positive vector is
	// detected and lowered to the uniform sampler (so it reproduces
	// unweighted answers exactly, with estimates scaled by the mass).
	Weights []float64
	// Costs[v] is the seeding cost of node v; nil means unit costs. Used
	// only when Budget > 0, and then every entry must be positive and
	// finite.
	Costs []float64
	// Budget, when positive, bounds the total cost of the selected seeds
	// (beyond forced ones). K remains a cap on the number of picks.
	Budget float64
	// Force are warm-start seeds assumed already activated: they are
	// returned at the front of the seed set, their RR coverage is
	// pre-subtracted, and they consume neither K nor Budget.
	Force []uint32
	// Exclude are nodes that must not be picked as seeds. They still
	// propagate influence and count toward the audience: exclusion
	// constrains seeding, not diffusion.
	Exclude []uint32
	// MaxHops, when positive, bounds the diffusion horizon: only nodes
	// reachable within MaxHops propagation rounds count as activated.
	MaxHops int
}

// Zero reports whether the spec requests the default scenario. A negative
// MaxHops is not zero: it flows into Compile, which rejects it.
func (s *Spec) Zero() bool {
	return s == nil || (s.Weights == nil && s.Costs == nil && s.Budget == 0 &&
		len(s.Force) == 0 && len(s.Exclude) == 0 && s.MaxHops == 0)
}

// Compiled is a Spec lowered against a concrete node count, ready for the
// sampling and selection layers.
type Compiled struct {
	// Sample configures RR generation (root distribution, horizon). Zero
	// for specs that do not change sampling.
	Sample diffusion.SampleConfig
	// Mass is the total audience weight W — the scale of every spread
	// estimate (W·coverage-fraction estimates the weighted influence).
	// For uniform audiences it is exactly float64(n), preserving the
	// unweighted estimator bit for bit.
	Mass float64
	// Cover is the node-selection constraint set; K is filled in by the
	// caller (tim) from its own options.
	Cover maxcover.Constraints
	// Weighted reports a non-uniform audience (Sample.Roots != nil).
	Weighted bool
	// N is the node count the spec was compiled against.
	N int
	// Hash is the sampling-profile hash: two compiled specs share it
	// exactly when their RR collections are interchangeable — when the
	// parts that change *sampling* agree. Non-uniform weights (with the
	// node count they were compiled at) and MaxHops enter the hash;
	// costs, budget, force, and exclude do not: those only change
	// selection over the same sets, which is precisely why
	// exclusion-style queries keep hitting warm unweighted sketches.
	// The default profile hashes to 0, so callers can keep a legacy
	// cache key for unconstrained traffic.
	Hash uint64
}

// Constrained reports whether node selection needs the constrained
// (lazy-greedy) path rather than the unconstrained bucket greedy.
func (c *Compiled) Constrained() bool {
	return c.Cover.Budget > 0 || len(c.Cover.Force) > 0 || len(c.Cover.Exclude) > 0
}

// Compile validates the spec against an n-node graph and lowers it. A nil
// spec compiles like the zero Spec.
func (s *Spec) Compile(n int) (*Compiled, error) {
	if s == nil {
		s = &Spec{}
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: graph has no nodes", ErrBadSpec)
	}
	c := &Compiled{Mass: float64(n), N: n}

	if s.Weights != nil {
		if len(s.Weights) != n {
			return nil, fmt.Errorf("%w: %d weights for %d nodes", ErrBadSpec, len(s.Weights), n)
		}
		var total float64
		uniform := true
		for v, w := range s.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
				return nil, fmt.Errorf("%w: weight[%d]=%v must be finite and non-negative", ErrBadSpec, v, w)
			}
			total += w
			uniform = uniform && w == s.Weights[0]
		}
		if total <= 0 {
			return nil, fmt.Errorf("%w: audience weights sum to zero", ErrBadSpec)
		}
		c.Mass = total
		if !uniform {
			c.Sample.Roots = newWeightedRoots(s.Weights)
			c.Weighted = true
		}
		// A uniform positive profile is the default root distribution:
		// lower it to the uniform sampler so the collection (and hence the
		// seeds) match an unweighted query exactly; only Mass differs.
	}

	if s.MaxHops < 0 {
		return nil, fmt.Errorf("%w: max_hops=%d must be non-negative", ErrBadSpec, s.MaxHops)
	}
	c.Sample.MaxHops = s.MaxHops

	if s.Budget < 0 || math.IsNaN(s.Budget) || math.IsInf(s.Budget, 0) {
		return nil, fmt.Errorf("%w: budget=%v must be a non-negative finite number", ErrBadSpec, s.Budget)
	}
	if s.Budget > 0 {
		c.Cover.Budget = s.Budget
		if s.Costs != nil {
			if len(s.Costs) != n {
				return nil, fmt.Errorf("%w: %d costs for %d nodes", ErrBadSpec, len(s.Costs), n)
			}
			for v, w := range s.Costs {
				if math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
					return nil, fmt.Errorf("%w: cost[%d]=%v must be finite and positive", ErrBadSpec, v, w)
				}
			}
			c.Cover.Costs = s.Costs
		}
	} else if s.Costs != nil {
		return nil, fmt.Errorf("%w: costs without a budget have no effect", ErrBadSpec)
	}

	excluded := make(map[uint32]bool, len(s.Exclude))
	for _, v := range s.Exclude {
		if int(v) >= n {
			return nil, fmt.Errorf("%w: excluded node %d outside [0, %d)", ErrBadSpec, v, n)
		}
		excluded[v] = true
	}
	c.Cover.Exclude = s.Exclude
	seen := make(map[uint32]bool, len(s.Force))
	for _, v := range s.Force {
		if int(v) >= n {
			return nil, fmt.Errorf("%w: forced seed %d outside [0, %d)", ErrBadSpec, v, n)
		}
		if excluded[v] {
			return nil, fmt.Errorf("%w: node %d both forced and excluded", ErrBadSpec, v)
		}
		if seen[v] {
			return nil, fmt.Errorf("%w: forced seed %d repeated", ErrBadSpec, v)
		}
		seen[v] = true
	}
	c.Cover.Force = s.Force
	if len(excluded) >= n {
		return nil, fmt.Errorf("%w: every node is excluded", ErrBadSpec)
	}
	c.Hash = profileHash(c, s.Weights)
	return c, nil
}

// profileHash computes Compiled.Hash (see that field's doc) with FNV-1a
// over the horizon and, for non-uniform audiences, (n, weight bits).
func profileHash(c *Compiled, weights []float64) uint64 {
	if !c.Weighted && c.Sample.MaxHops <= 0 {
		return 0
	}
	h := uint64(14695981039346656037) // FNV-1a offset basis
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mix(uint64(c.Sample.MaxHops))
	if c.Weighted {
		mix(uint64(c.N))
		for _, w := range weights {
			mix(math.Float64bits(w))
		}
	}
	if h == 0 {
		h = 1 // reserve 0 for the default profile
	}
	return h
}

// weightedRoots draws RR-set roots ∝ a fixed weight profile via Walker's
// alias table. It is a pure function of the profile — never of the graph —
// which is the diffusion.RootSampler stability contract that lets
// evolve.RepairConfig skip the root-instability check for weighted
// collections.
type weightedRoots struct {
	table *gen.AliasTable
}

func newWeightedRoots(weights []float64) *weightedRoots {
	return &weightedRoots{table: gen.NewAliasTable(weights)}
}

// SampleRoot implements diffusion.RootSampler.
func (w *weightedRoots) SampleRoot(r *rng.Rand) uint32 {
	return uint32(w.table.Sample(r))
}
