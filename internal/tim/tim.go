package tim

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/stats"
)

// seedSequence deals deterministic sub-seeds to the successive sampling
// batches of a run, so that batches are mutually independent streams while
// the whole run stays reproducible from one master seed.
type seedSequence struct {
	r *rng.Rand
}

func newSeedSequence(master uint64) *seedSequence {
	return &seedSequence{r: rng.New(master)}
}

func (s *seedSequence) next() uint64 { return s.r.Uint64() }

// Maximize runs TIM or TIM+ (per opts.Variant) on g under the given
// diffusion model and returns the selected seed set with diagnostics.
//
// Guarantees (Theorems 1–3): the result is (1 − 1/e − ε)-approximate with
// probability at least 1 − n^−ℓ, in O((k + ℓ)(m + n) log n / ε²) expected
// time, under IC, LT, and any triggering model.
func Maximize(g *graph.Graph, model diffusion.Model, opts Options) (*Result, error) {
	return MaximizeContext(context.Background(), g, model, opts)
}

// MaximizeContext is Maximize with cancellation: the context is polled
// inside every sampling loop (the phases where all the time goes), so a
// cancelled or deadline-exceeded ctx aborts the run promptly and returns
// ctx's error. Long-lived callers — request-scoped services especially —
// should prefer it over Maximize.
func MaximizeContext(ctx context.Context, g *graph.Graph, model diffusion.Model, opts Options) (*Result, error) {
	n := g.N()
	if err := opts.validate(n); err != nil {
		return nil, err
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	ell := opts.effectiveEll(n)
	seeds := newSeedSequence(opts.Seed)
	res := &Result{Epsilon: opts.Epsilon}
	start := time.Now()

	// Constrained-query lowering: the sampling scenario (root weights,
	// horizon), the audience mass the estimator scales by, and the
	// node-selection constraints. All are no-ops for a nil/zero Query —
	// mass == float64(n) exactly, so every formula below is bit-identical
	// to the unconstrained run.
	cfg := opts.sampleConfig()
	mass := opts.mass(n)
	cover := maxcover.Constraints{K: opts.K}
	if opts.compiled != nil {
		cover = opts.compiled.Cover
		cover.K = opts.K
	}
	// Workers drives the selection half too (index build, coverage
	// counting); results are byte-identical for every value.
	cover.Workers = opts.Workers
	res.Mass = mass

	// Phase 1: parameter estimation (Algorithm 2).
	t0 := time.Now()
	kptSpan := obs.StartSpan(ctx, "kpt.estimate")
	est := estimateKPT(ctx, g, model, cfg, mass, opts.K, ell, opts.Workers, seeds)
	kptSpan.Attr("kpt_star", est.kptStar).Attr("iterations", int64(est.iterations)).End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Timings.KptEstimation = time.Since(t0)
	res.KptStar = est.kptStar
	res.KptPlus = est.kptStar
	res.EptEstimate = est.ept
	res.KptIterations = est.iterations

	// Intermediate step: refinement (Algorithm 3, TIM+ only).
	if opts.Variant == TIMPlus {
		t1 := time.Now()
		refineSpan := obs.StartSpan(ctx, "kpt.refine")
		res.KptPlus = refineKPT(ctx, g, model, cfg, mass, cover, est.lastBatch,
			est.kptStar, opts.EpsPrime, ell, opts.Workers, seeds)
		refineSpan.Attr("kpt_plus", res.KptPlus).End()
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res.Timings.Refinement = time.Since(t1)
	}

	// Phase 2: node selection (Algorithm 1) with θ = λ/KPT. λ scales by
	// mass/n: Equation 4's leading n is the estimator scale W·F_R(S),
	// which for a weighted audience is the mass (for uniform audiences
	// the factor is exactly 1.0 and the product is unchanged).
	t2 := time.Now()
	lambda := stats.Lambda(n, opts.K, opts.Epsilon, ell) * (mass / float64(n))
	kpt := res.KptPlus
	// The floor "a seed always activates itself" is one node's worth of
	// audience: 1 in the uniform case (exactly, preserving bit-identity),
	// mass/n — a lower bound on the best single node's weight via
	// max ≥ mean — in the weighted case.
	if floor := mass / float64(n); kpt < floor {
		kpt = floor
	}
	theta := int64(math.Ceil(lambda / kpt))
	if theta < 1 {
		theta = 1
	}
	if opts.ThetaCap > 0 && theta > opts.ThetaCap {
		theta = opts.ThetaCap
		res.ThetaCapped = true
	}
	if !res.ThetaCapped {
		res.Confidence = ApproxFactor(opts.Epsilon)
	}
	selSpan := obs.StartSpan(ctx, "select").Attr("theta", theta).Attr("k", int64(opts.K))
	if opts.SpillDir != "" {
		cover, stats, err := selectOutOfCore(ctx, g, model, opts.K, theta, opts.Workers, opts.SpillDir, seeds)
		if err != nil {
			selSpan.End()
			return nil, err
		}
		selSpan.Attr("covered", cover.Covered).Attr("spilled", true).End()
		res.Timings.NodeSelection = time.Since(t2)
		res.Seeds = cover.Seeds
		res.Theta = theta
		res.CoverageFraction = float64(cover.Covered) / float64(theta)
		res.SpreadEstimate = res.CoverageFraction * float64(n)
		res.RRTotalNodes = stats.totalNodes
		res.MemoryBytes = stats.diskBytes
		res.Spilled = true
		res.Timings.Total = time.Since(start)
		return res, nil
	}
	var col *diffusion.RRCollection
	if opts.Source != nil {
		var err error
		col, err = opts.Source.NodeSelectionSets(ctx, g, model, theta, opts.Workers)
		if err != nil {
			selSpan.End()
			return nil, err
		}
		if int64(col.Count()) < theta {
			selSpan.End()
			return nil, fmt.Errorf("%w: returned %d RR sets, need θ=%d",
				ErrBadSource, col.Count(), theta)
		}
		theta = int64(col.Count())
	} else {
		col = diffusion.SampleCollection(g, model, theta, diffusion.SampleOptions{
			Workers: opts.Workers,
			Seed:    seeds.next(),
			Ctx:     ctx,
			Config:  cfg,
		})
		if err := ctx.Err(); err != nil {
			selSpan.End()
			return nil, err
		}
	}
	sel := maxcover.GreedyConstrained(n, col, cover)
	selSpan.Attr("covered", sel.Covered).End()
	res.Timings.NodeSelection = time.Since(t2)

	res.Seeds = sel.Seeds
	res.ForcedSeeds = sel.Forced
	res.SeedCost = sel.Cost
	res.Theta = theta
	res.CoverageFraction = float64(sel.Covered) / float64(theta)
	res.SpreadEstimate = res.CoverageFraction * mass
	res.RRTotalNodes = col.TotalNodes()
	res.MemoryBytes = col.MemoryBytes()
	res.Timings.Total = time.Since(start)
	return res, nil
}

// SelectWithTheta runs Algorithm 1 alone with an explicitly chosen θ —
// the paper's NodeSelection(G, k, θ). It is exposed for experiments that
// study θ directly; Maximize is the supported entry point.
func SelectWithTheta(g *graph.Graph, model diffusion.Model, k int, theta int64, workers int, seed uint64) (*Result, error) {
	opts := Options{K: k}
	if err := opts.validate(g.N()); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if theta < 1 {
		theta = 1
	}
	start := time.Now()
	col := diffusion.SampleCollection(g, model, theta, diffusion.SampleOptions{
		Workers: workers,
		Seed:    seed,
	})
	cover := maxcover.GreedyWorkers(g.N(), col, k, workers)
	res := &Result{
		Seeds:            cover.Seeds,
		Theta:            theta,
		CoverageFraction: float64(cover.Covered) / float64(theta),
		RRTotalNodes:     col.TotalNodes(),
		MemoryBytes:      col.MemoryBytes(),
	}
	res.SpreadEstimate = res.CoverageFraction * float64(g.N())
	res.Timings.NodeSelection = time.Since(start)
	res.Timings.Total = res.Timings.NodeSelection
	return res, nil
}
