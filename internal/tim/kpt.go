package tim

import (
	"context"
	"math"

	"repro/internal/diffusion"
	"repro/internal/graph"
	"repro/internal/stats"
)

// kptEstimate is the output of Algorithm 2 plus what Algorithm 3 reuses.
type kptEstimate struct {
	kptStar    float64
	iterations int
	// lastBatch is R′, the RR sets generated in the final iteration —
	// Algorithm 3 line 1 retrieves exactly these.
	lastBatch *diffusion.RRCollection
	// ept is the mean width w(R) of lastBatch, an estimate of EPT.
	ept float64
}

// estimateKPT is Algorithm 2 (KptEstimation). It runs at most
// log2(n) − 1 iterations; iteration i samples
// c_i = (6ℓ ln n + 6 ln log2 n)·2^i RR sets, measures
// κ(R) = 1 − (1 − w(R)/m)^k on each (Equation 8), and stops as soon as
// the average exceeds 2^−i, returning KPT* = n·avg/2. If no iteration
// triggers, KPT* = 1 — the smallest possible value, since a seed always
// activates itself (§3.2).
//
// For constrained scenarios the RR sets are drawn under cfg (weighted
// roots, bounded horizon) and the n in KPT* = n·avg/2 becomes the
// audience mass W — the natural generalization: avg estimates the
// expected κ of a weight-drawn root, so W·avg/2 plays the role n·avg/2
// does for uniform roots (DESIGN.md §9.2 discusses how exact the bound
// stays). For the default scenario mass == float64(n) and the arithmetic
// is bit-identical to the unconstrained estimator.
func estimateKPT(ctx context.Context, g *graph.Graph, model diffusion.Model, cfg diffusion.SampleConfig, mass float64, k int, ell float64, workers int, seeds *seedSequence) kptEstimate {
	n := g.N()
	m := g.M()
	iterations := stats.KptIterations(n)
	var last *diffusion.RRCollection
	var lastWidth int64
	for i := 1; i <= iterations; i++ {
		if ctx.Err() != nil {
			break // caller surfaces ctx.Err(); the estimate is discarded
		}
		ci := stats.SampleScheduleCi(n, ell, i)
		col := diffusion.SampleCollection(g, model, ci, diffusion.SampleOptions{
			Workers: workers,
			Seed:    seeds.next(),
			Ctx:     ctx,
			Config:  cfg,
		})
		sum, width := KappaSum(g, col, k, m)
		last, lastWidth = col, width
		avg := sum / float64(ci)
		if avg > math.Pow(2, -float64(i)) {
			return kptEstimate{
				kptStar:    mass * sum / (2 * float64(ci)),
				iterations: i,
				lastBatch:  col,
				ept:        meanWidth(width, col),
			}
		}
	}
	// No iteration triggered: fall back to the smallest possible value —
	// a seed always activates itself (§3.2), worth one node's audience:
	// exactly 1 for uniform profiles, mass/n (≤ the best single node's
	// weight, since max ≥ mean) for weighted ones.
	return kptEstimate{
		kptStar:    mass / float64(n),
		iterations: iterations,
		lastBatch:  last,
		ept:        meanWidth(lastWidth, last),
	}
}

// KappaSum computes Σ κ(R) over the collection, where
// κ(R) = 1 − (1 − w(R)/m)^k (Equation 8), together with Σ w(R) — the
// widths (Equation 1, via diffusion.Width) the κ terms are computed
// from. With no edges (m = 0) every κ and every width is 0: a uniformly
// random edge cannot point into R because there are none (Lemma 5's
// edge-sampling argument). Exported because the distributed runner
// (internal/dist) shares this paper-critical formula.
func KappaSum(g *graph.Graph, col *diffusion.RRCollection, k, m int) (kappa float64, width int64) {
	if m == 0 {
		return 0, 0
	}
	count := col.Count()
	for i := 0; i < count; i++ {
		w := diffusion.Width(g, col.Set(i))
		width += w
		kappa += 1 - math.Pow(1-float64(w)/float64(m), float64(k))
	}
	return kappa, width
}

// meanWidth estimates EPT (the expected RR-set width) as the mean width
// of the final Algorithm 2 batch, which geometrically dominates the
// sample size: its Σ w(R), as KappaSum returned it, over its set count.
func meanWidth(width int64, col *diffusion.RRCollection) float64 {
	if col == nil || col.Count() == 0 {
		return 0
	}
	return float64(width) / float64(col.Count())
}
