package repro

import (
	"context"

	"repro/internal/diffusion"
	"repro/internal/maxcover"
	"repro/internal/query"
	"repro/internal/rng"
	"repro/internal/spread"
	"repro/internal/tim"
)

// Rand is the fast seedable random generator handed to custom
// TriggerSampler implementations. Construct with NewRand.
type Rand = rng.Rand

// NewRand returns a deterministic random generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// Model selects a diffusion model: IC(), LT(), or TriggeringModel(...).
type Model = diffusion.Model

// TriggerSampler defines a custom triggering distribution: for each node
// it samples a subset of the node's in-neighbors (the triggering set).
// See §4.2 of the paper; IC and LT are special cases.
type TriggerSampler = diffusion.TriggerSampler

// IC returns the independent cascade model. Edge weights are propagation
// probabilities.
func IC() Model { return diffusion.NewIC() }

// LT returns the linear threshold model. Edge weights are influence
// weights; each node's in-weights must sum to at most 1 (use
// UseRandomLTWeights or UseUniformLTWeights).
func LT() Model { return diffusion.NewLT() }

// TriggeringModel returns the general triggering model driven by a custom
// sampler.
func TriggeringModel(ts TriggerSampler) Model { return diffusion.NewTriggering(ts) }

// Algorithm selects the Maximize variant: TIMPlus (default) or TIM.
type Algorithm = tim.Algorithm

// Variants of Maximize.
const (
	// TIMPlus runs parameter estimation, the KPT refinement of §4.1,
	// and node selection — the paper's TIM+ (default, fastest).
	TIMPlus = tim.TIMPlus
	// TIM skips the refinement step — the paper's base algorithm.
	TIM = tim.TIM
)

// Options configures Maximize. Only K is required; see the field docs on
// tim.Options for the full contract (ε, ℓ, variant, workers, seed).
type Options = tim.Options

// Result carries the selected seeds plus the diagnostics the paper
// charts: KPT*, KPT+, θ, per-phase timings, and RR-set memory.
type Result = tim.Result

// Timings is the per-phase wall-clock breakdown (Figure 4).
type Timings = tim.Timings

// ErrBadOptions is returned by Maximize for invalid options.
var ErrBadOptions = tim.ErrBadOptions

// Maximize selects a size-K seed set maximizing expected spread under the
// given model. The result is (1 − 1/e − ε)-approximate with probability
// at least 1 − n^−ℓ, computed in O((k + ℓ)(m + n) log n / ε²) expected
// time (Theorems 1–3 of the paper).
func Maximize(g *Graph, model Model, opts Options) (*Result, error) {
	return tim.Maximize(g, model, opts)
}

// MaximizeContext is Maximize with cancellation: ctx is polled inside the
// sampling loops of all three phases, so a cancelled or deadline-exceeded
// context aborts the run promptly with ctx's error. Request-scoped
// callers (for example cmd/timserver) should prefer it over Maximize.
func MaximizeContext(ctx context.Context, g *Graph, model Model, opts Options) (*Result, error) {
	return tim.MaximizeContext(ctx, g, model, opts)
}

// RRCollection is a flat arena of reverse-reachable sets — the type a
// CollectionSource produces. See ExtendCollection in internal/diffusion
// for the prefix-deterministic way to grow one.
type RRCollection = diffusion.RRCollection

// CoverIndex is the read-only node → RR-set inverted index node selection
// runs over. A CollectionSource may return one, built once per collection
// state, beside each θ-prefix view it serves, so repeated queries stop
// re-indexing the same sets; a nil index makes Maximize build one per
// call. See maxcover.NewIndex in internal/maxcover.
type CoverIndex = maxcover.Index

// CollectionSource is the RR-collection reuse hook of Options.Source: a
// long-lived caller can supply node-selection RR collections from a
// cache that is extended — never resampled — as θ grows across queries.
// Implementations return an *RRCollection with at least θ sets and an
// optional *CoverIndex over it; see tim.CollectionSource for the exact
// contract and internal/server for the canonical implementation.
type CollectionSource = tim.CollectionSource

// ErrBadSource is returned by Maximize when a CollectionSource violates
// its contract (fewer than θ sets returned, or an index that does not
// cover them).
var ErrBadSource = tim.ErrBadSource

// SpreadOptions configures EstimateSpread.
type SpreadOptions = spread.Options

// EstimateSpread returns the Monte-Carlo estimate of E[I(seeds)], the
// expected number of nodes a cascade from seeds activates.
func EstimateSpread(g *Graph, model Model, seeds []uint32, opts SpreadOptions) float64 {
	return spread.Estimate(g, model, seeds, opts)
}

// EstimateSpreadStderr additionally returns the standard error of the
// estimate.
func EstimateSpreadStderr(g *Graph, model Model, seeds []uint32, opts SpreadOptions) (mean, stderr float64) {
	return spread.EstimateWithStderr(g, model, seeds, opts)
}

// QuerySpec constrains a Maximize run (set it as Options.Query): targeted
// audience weights, per-node seeding costs under a budget, forced or
// excluded seeds, and a MaxHops diffusion deadline. The zero spec is the
// unconstrained query. See internal/query for field semantics and
// DESIGN.md §9 for the estimator derivations.
type QuerySpec = query.Spec

// ErrBadQuerySpec is returned (wrapped in ErrBadOptions) for invalid
// constraint specs.
var ErrBadQuerySpec = query.ErrBadSpec

// EstimateSpreadConstrained is the Monte-Carlo ground truth for
// constrained queries: each cascade is cut off after maxHops rounds
// (0 = unlimited) and each activated node contributes weights[v] (nil =
// unit). With nil weights and maxHops 0 it measures what EstimateSpread
// does.
func EstimateSpreadConstrained(g *Graph, model Model, seeds []uint32, weights []float64, maxHops int, opts SpreadOptions) (mean, stderr float64) {
	return spread.EstimateConstrained(g, model, seeds, weights, maxHops, opts)
}
