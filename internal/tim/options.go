// Package tim implements the paper's primary contribution: Two-phase
// Influence Maximization (TIM) and its heuristically improved variant TIM+.
//
// TIM runs in two phases (§3):
//
//  1. Parameter estimation (Algorithm 2) computes KPT*, a lower bound of
//     the optimum OPT, from the widths of a geometrically growing number
//     of random RR sets.
//  2. Node selection (Algorithm 1) samples θ = λ/KPT* random RR sets and
//     greedily solves maximum coverage over them.
//
// TIM+ inserts the intermediate refinement of §4.1 (Algorithm 3), which
// tightens KPT* into KPT+ ≥ KPT* and typically shrinks θ several-fold
// without affecting the (1 − 1/e − ε) approximation guarantee.
//
// The implementation supports the IC model, the LT model, and arbitrary
// triggering models (§4.2) through the diffusion package.
package tim

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/query"
	"repro/internal/stats"
)

// Algorithm selects the TIM variant.
type Algorithm int

const (
	// TIMPlus is Algorithms 2 + 3 + 1 (the paper's TIM+; default).
	TIMPlus Algorithm = iota
	// TIM is Algorithms 2 + 1 without refinement.
	TIM
)

// String implements fmt.Stringer.
func (a Algorithm) String() string {
	switch a {
	case TIMPlus:
		return "TIM+"
	case TIM:
		return "TIM"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configures a Maximize run. The zero value is not valid: K must
// be set. Other fields default sensibly (ε=0.1, ℓ=1, TIM+, all cores).
type Options struct {
	// K is the seed-set size (required, 1 ≤ K ≤ n).
	K int
	// Epsilon is the approximation slack ε in (0, 1]; the returned seed
	// set is (1 − 1/e − ε)-approximate. Default 0.1.
	Epsilon float64
	// Ell controls the failure probability n^−ℓ. Default 1. Unless
	// ExactEll is set, ℓ is internally inflated by 1 + ln(2)/ln(n) (TIM)
	// or 1 + ln(3)/ln(n) (TIM+) so that the *overall* success
	// probability is 1 − n^−ℓ, per §3.3 and §4.1.
	Ell float64
	// ExactEll disables the internal ℓ inflation.
	ExactEll bool
	// Variant selects TIM+ (default) or TIM.
	Variant Algorithm
	// EpsPrime is Algorithm 3's accuracy parameter ε′. Zero selects the
	// paper's heuristic 5·∛(ℓε²/(k+ℓ)) (§4.1). Ignored by plain TIM.
	EpsPrime float64
	// Workers is the parallelism of the whole query path — RR-set
	// sampling, the max-cover index build, and coverage counting —
	// defaulting to GOMAXPROCS. Results are byte-identical for every
	// value: sampling draws set i from a stream keyed by (Seed, i) and
	// selection reduces shard results in fixed order, so Workers is a
	// throughput knob, never part of the answer. A fixed Seed therefore
	// gives fully deterministic runs at any worker count.
	Workers int
	// Seed drives all randomness.
	Seed uint64
	// ThetaCap, when positive, truncates the number of RR sets sampled
	// in node selection. It exists for memory-bounded experimentation
	// and voids the approximation guarantee when it binds; Result
	// records whether it bound.
	ThetaCap int64
	// SpillDir, when non-empty, streams the node-selection RR sets to
	// a temporary file in that directory and runs the greedy cover
	// out-of-core (k+1 sequential passes; see internal/diskrr). Peak
	// memory drops from O(Σ|R|) to O(n + θ/8) bytes at the cost of
	// extra sequential I/O. The approximation guarantee is unchanged.
	// Use os.TempDir() for the system default location.
	SpillDir string
	// Source, when non-nil, supplies the node-selection RR collection
	// instead of fresh sampling — the reuse hook long-lived services
	// (internal/server) use to extend one cached collection across
	// queries with growing θ rather than resampling from scratch. It is
	// ignored when SpillDir is set. Parameter estimation and refinement
	// always sample fresh: they are cheap, k-dependent, and feed only the
	// choice of θ.
	Source CollectionSource
	// Query, when non-nil, constrains the scenario: targeted audience
	// weights, per-node seeding costs under a budget, forced or excluded
	// seeds, and a diffusion deadline (internal/query). A nil or zero
	// spec is the paper's default query and changes nothing — answers
	// are bit-identical to a run without it. Constrained runs do not
	// support SpillDir (the out-of-core path has no constraint hooks).
	//
	// With a Query, K counts the *new* seeds beyond Query.Force: the
	// returned seed set is Force followed by up to K greedy picks, and
	// Result.SpreadEstimate estimates the weighted, deadline-bounded
	// audience mass activated by all of them together.
	Query *query.Spec
	// CompiledQuery optionally supplies Query already lowered against
	// this graph's node count (query.Spec.Compile). Services that need
	// the compiled form anyway — internal/server keys its RR-collection
	// cache on Compiled.Hash — set it to spare a second O(n)
	// compilation per request; everyone else leaves it nil and lets
	// validate compile Query. When set it takes precedence over Query
	// and must match the graph's node count.
	CompiledQuery *query.Compiled

	// compiled is the active lowered query; set by validate.
	compiled *query.Compiled
}

// CollectionSource supplies node-selection RR collections for Maximize.
// Implementations must return a collection of at least theta independent
// RR sets for (g, model), drawn under the same sampling scenario as the
// query — uniform roots and unlimited horizon by default; when the
// Maximize call carries a Query with audience weights or MaxHops, the
// source must sample under the equivalent diffusion.SampleConfig (the
// server arranges this by keying its cached collections on the compiled
// profile hash). Returning more than theta is permitted — extra i.i.d.
// sets only tighten the coverage estimate — and Result.Theta reports the
// count actually used. The returned collection must not be mutated
// afterwards while the Result is in use.
//
// The source may also return a read-only maxcover.Index over the
// collection it keeps — built once and shared across queries the way the
// collection's prefix views are — so Maximize selects over (index, θ)
// instead of indexing the θ sets itself. The index must cover g's nodes
// (N() == g.N()) and at least the returned sets, of which they must be a
// prefix: the returned collection is the θ-prefix of what the index
// indexes. A nil index means Maximize builds one for this call. Like the
// collection, the index must not be mutated while the Result is in use.
//
// Snapshot contract: the g passed to NodeSelectionSets is the same graph
// the whole Maximize call runs against — parameter estimation,
// refinement, and node selection all see one coherent view. Callers
// serving mutable datasets (internal/server over internal/evolve) must
// therefore pass Maximize an immutable snapshot and key any cached
// collections by that snapshot's version: a source that returned sets
// sampled on a different topology than g would silently bias the
// coverage estimate. The evolving-graph reuse layer meets the contract
// by repairing its cached collection to the query's snapshot version
// (evolve.Repair) before extending it to θ.
type CollectionSource interface {
	NodeSelectionSets(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, *maxcover.Index, error)
}

// ErrBadOptions wraps every option-validation failure. It indicates a
// caller mistake (servers should map it to a 4xx status).
var ErrBadOptions = errors.New("tim: invalid options")

// ErrBadSource reports a CollectionSource contract violation (fewer than
// θ sets returned, or an index that does not cover them). Unlike ErrBadOptions this is a defect in the source
// implementation, not in the query that triggered it.
var ErrBadSource = errors.New("tim: CollectionSource contract violation")

func (o *Options) validate(n int) error {
	if n <= 0 {
		return fmt.Errorf("%w: graph has no nodes", ErrBadOptions)
	}
	if o.K <= 0 {
		return fmt.Errorf("%w: K=%d must be positive", ErrBadOptions, o.K)
	}
	if o.K > n {
		return fmt.Errorf("%w: K=%d exceeds node count %d", ErrBadOptions, o.K, n)
	}
	if o.Epsilon == 0 {
		o.Epsilon = 0.1
	}
	if o.Epsilon <= 0 || o.Epsilon > 1 {
		return fmt.Errorf("%w: Epsilon=%v outside (0, 1]", ErrBadOptions, o.Epsilon)
	}
	if o.Ell == 0 {
		o.Ell = 1
	}
	if o.Ell <= 0 {
		return fmt.Errorf("%w: Ell=%v must be positive", ErrBadOptions, o.Ell)
	}
	if o.Variant != TIM && o.Variant != TIMPlus {
		return fmt.Errorf("%w: unknown variant %d", ErrBadOptions, int(o.Variant))
	}
	if o.EpsPrime == 0 {
		o.EpsPrime = stats.EpsPrime(o.K, o.Epsilon, o.Ell)
	}
	if o.EpsPrime <= 0 {
		return fmt.Errorf("%w: EpsPrime=%v must be positive", ErrBadOptions, o.EpsPrime)
	}
	switch {
	case o.CompiledQuery != nil:
		if o.SpillDir != "" {
			return fmt.Errorf("%w: SpillDir does not support constrained queries", ErrBadOptions)
		}
		if o.CompiledQuery.N != n {
			return fmt.Errorf("%w: CompiledQuery lowered for %d nodes, graph has %d",
				ErrBadOptions, o.CompiledQuery.N, n)
		}
		o.compiled = o.CompiledQuery
	case o.Query != nil && !o.Query.Zero():
		if o.SpillDir != "" {
			return fmt.Errorf("%w: SpillDir does not support constrained queries", ErrBadOptions)
		}
		c, err := o.Query.Compile(n)
		if err != nil {
			// Keep both sentinels reachable: ErrBadOptions for callers
			// that map every option failure alike, query.ErrBadSpec for
			// those that count constraint rejections separately.
			return fmt.Errorf("%w: %w", ErrBadOptions, err)
		}
		o.compiled = c
	}
	return nil
}

// sampleConfig returns the compiled sampling scenario (zero by default).
func (o *Options) sampleConfig() diffusion.SampleConfig {
	if o.compiled == nil {
		return diffusion.SampleConfig{}
	}
	return o.compiled.Sample
}

// mass returns the audience mass W the estimator scales by: Σ audience
// weights, or exactly float64(n) for uniform audiences — which keeps the
// unconstrained estimator arithmetic bit-identical.
func (o *Options) mass(n int) float64 {
	if o.compiled == nil {
		return float64(n)
	}
	return o.compiled.Mass
}

// effectiveEll returns ℓ after the §3.3/§4.1 success-probability
// adjustment (union bound over the 2 or 3 sub-procedures).
func (o *Options) effectiveEll(n int) float64 {
	if o.ExactEll {
		return o.Ell
	}
	return EffectiveEll(o.Ell, o.Variant, n)
}

// ApproxFactor is the guaranteed approximation factor of a RIS run at
// slack ε: the returned seed set is (1 − 1/e − ε)-approximate with
// probability at least 1 − n^−ℓ. It is the "confidence" dial of the
// latency-tiered server (internal/tiered): clients ask for a floor on
// it, and the planner converts the floor back to an ε cap via
// EpsilonForConfidence. Clamped at 0 for ε ≥ 1 − 1/e.
func ApproxFactor(eps float64) float64 {
	f := 1 - 1/math.E - eps
	if f < 0 {
		return 0
	}
	return f
}

// EpsilonForConfidence inverts ApproxFactor: the largest ε whose
// guarantee still meets the required approximation factor. Callers must
// check conf < 1 − 1/e first (no ε satisfies more).
func EpsilonForConfidence(conf float64) float64 {
	return 1 - 1/math.E - conf
}

// EffectiveEll applies the §3.3/§4.1 success-probability inflation to ℓ:
// TIM unions over 2 sub-procedures (1 − 2n^−ℓ → scale by 1 + ln2/ln n),
// TIM+ over 3. Exported because the distributed runner (internal/dist)
// applies the same adjustment.
func EffectiveEll(ell float64, variant Algorithm, n int) float64 {
	if n < 2 {
		return ell
	}
	factor := math.Ln2
	if variant == TIMPlus {
		factor = math.Log(3)
	}
	return ell * (1 + factor/math.Log(float64(n)))
}
