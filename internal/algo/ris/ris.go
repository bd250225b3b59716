// Package ris implements Borgs et al.'s Reverse Influence Sampling
// (§2.3 of the paper): generate random RR sets until the total number of
// nodes and edges examined reaches a threshold τ = Θ(k(m+n)·log n / ε³),
// then greedily solve maximum coverage over the sampled sets.
//
// RIS is the near-optimal-time predecessor TIM improves on. Its practical
// weaknesses — the ε⁻³ term, the large hidden constant, and the
// correlation between RR sets induced by the cost threshold (§2.3,
// footnote 3) — are exactly what the paper's Figure 3 measures, so this
// implementation keeps the threshold-based control flow intact.
package ris

import (
	"errors"
	"fmt"
	"math"
	"runtime"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/rng"
)

// Options configures a RIS run.
type Options struct {
	// K is the seed-set size (required).
	K int
	// Epsilon is the approximation slack; τ scales with ε⁻³. Default 0.1.
	Epsilon float64
	// Ell scales τ for the 1 − n^−ℓ success amplification (Borgs et
	// al. §2.3; we fold the amplification into the threshold rather
	// than repeating the whole algorithm Ω(ℓ log n) times). Default 1.
	Ell float64
	// TauConstant is the hidden constant of τ = C·ℓ·k·(m+n)·log n / ε³.
	// Borgs et al. leave C unspecified; 1 reproduces the "slow but
	// correct" behaviour of Figure 3. Default 1.
	TauConstant float64
	// CostCap, when positive, aborts sampling after this many
	// examined nodes+edges even if τ was not reached. The result then
	// has Capped=true and carries no approximation guarantee. This
	// exists because a faithful τ is often deliberately impractical —
	// that impracticality is the paper's point — yet benchmarks must
	// terminate.
	CostCap int64
	// Workers parallelizes RR generation in chunks (default
	// GOMAXPROCS). The threshold is checked between chunks, so the
	// realized cost can overshoot τ by at most one chunk.
	Workers int
	// Seed drives sampling.
	Seed uint64
}

// Result reports a RIS run.
type Result struct {
	Seeds []uint32
	// Tau is the computed threshold on examined nodes+edges.
	Tau int64
	// Cost is the realized examined nodes+edges.
	Cost int64
	// RRSets is the number of RR sets generated.
	RRSets int64
	// Capped reports that CostCap stopped sampling before τ.
	Capped bool
	// CoverageFraction and SpreadEstimate mirror tim.Result.
	CoverageFraction float64
	SpreadEstimate   float64
}

// ErrBadOptions wraps option-validation failures.
var ErrBadOptions = errors.New("ris: invalid options")

// chunk is the number of RR sets generated between threshold checks.
const chunk = 1024

// Select runs RIS on g under the model.
func Select(g *graph.Graph, model diffusion.Model, opts Options) (*Result, error) {
	n := g.N()
	if n == 0 {
		return nil, fmt.Errorf("%w: empty graph", ErrBadOptions)
	}
	if opts.K <= 0 || opts.K > n {
		return nil, fmt.Errorf("%w: K=%d with n=%d", ErrBadOptions, opts.K, n)
	}
	if opts.Epsilon == 0 {
		opts.Epsilon = 0.1
	}
	if opts.Epsilon <= 0 || opts.Epsilon > 1 {
		return nil, fmt.Errorf("%w: Epsilon=%v", ErrBadOptions, opts.Epsilon)
	}
	if opts.Ell == 0 {
		opts.Ell = 1
	}
	if opts.Ell <= 0 {
		return nil, fmt.Errorf("%w: Ell=%v", ErrBadOptions, opts.Ell)
	}
	if opts.TauConstant == 0 {
		opts.TauConstant = 1
	}
	if opts.TauConstant <= 0 {
		return nil, fmt.Errorf("%w: TauConstant=%v", ErrBadOptions, opts.TauConstant)
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}

	tauF := opts.TauConstant * opts.Ell * float64(opts.K) * float64(g.M()+n) *
		math.Log(math.Max(float64(n), 2)) / math.Pow(opts.Epsilon, 3)
	tau := int64(math.Ceil(tauF))
	if tau < 1 {
		tau = 1
	}

	col := &diffusion.RRCollection{Off: []int64{0}}
	var cost int64
	capped := false
	seedSeq := rng.New(opts.Seed)
	for cost < tau {
		if opts.CostCap > 0 && cost >= opts.CostCap {
			capped = true
			break
		}
		batch := diffusion.SampleCollection(g, model, chunk, diffusion.SampleOptions{
			Workers: opts.Workers,
			Seed:    seedSeq.Uint64(),
		})
		col.Merge(batch)
		// Borgs et al.'s stopping rule charges Σ(w(R)+|R|): the edges and
		// nodes a generation examines.
		cost += batch.TotalNodes()
		for i := 0; i < batch.Count(); i++ {
			cost += diffusion.Width(g, batch.Set(i))
		}
	}

	cover := maxcover.GreedyWorkers(n, col, opts.K, opts.Workers)
	res := &Result{
		Seeds:  cover.Seeds,
		Tau:    tau,
		Cost:   cost,
		RRSets: int64(col.Count()),
		Capped: capped,
	}
	if col.Count() > 0 {
		res.CoverageFraction = float64(cover.Covered) / float64(col.Count())
		res.SpreadEstimate = res.CoverageFraction * float64(n)
	}
	return res, nil
}
