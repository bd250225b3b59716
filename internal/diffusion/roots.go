package diffusion

import "repro/internal/rng"

// RootSampler draws RR-set roots from a non-uniform node distribution.
// Borgs et al.'s root-sampling argument holds verbatim for any node-weight
// distribution: if roots are drawn with probability w(v)/W (W = Σw), then
// for any seed set S, W·Pr[S covers a random RR set] equals the weighted
// influence Σ_v w(v)·Pr[S activates v]. Targeted influence maximization
// (internal/query) rides on exactly that substitution.
//
// Contract: SampleRoot must be a pure function of the sampler's own fixed
// state and the stream r — it must never read the graph. In particular the
// draw may not depend on the current node count, so root draws stay stable
// when the graph grows nodes; the incremental maintainer
// (evolve.RepairConfig) relies on this to skip the root-instability check
// for non-uniform roots.
// Returned ids must lie in [0, n) of every graph the sampler is used with.
type RootSampler interface {
	// SampleRoot draws one root node id from the sampler's distribution.
	SampleRoot(r *rng.Rand) uint32
}

// SampleConfig bundles the scenario knobs of constrained-query RR
// sampling. The zero value is the paper's default scenario — uniform roots,
// unbounded diffusion — and is guaranteed to consume the random stream
// exactly as the pre-config samplers did, so default-config collections are
// bit-identical to legacy ones.
type SampleConfig struct {
	// Roots draws RR-set roots; nil means uniform over [0, g.N()).
	Roots RootSampler
	// MaxHops, when positive, caps the diffusion horizon: an RR set holds
	// only the nodes with a live path of at most MaxHops edges to the root
	// (Chen et al.'s time-critical IC, mirrored on the reverse walk; under
	// LT the single reverse chain is truncated after MaxHops steps). Zero
	// means unlimited.
	MaxHops int
}

// Default reports whether the config is the zero scenario, for callers
// that key caches or fast paths on "no constraints".
func (c SampleConfig) Default() bool { return c.Roots == nil && c.MaxHops <= 0 }
