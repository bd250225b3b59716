package tim

import (
	"context"
	"math"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/rng"
	"repro/internal/spread"
	"repro/internal/stats"
)

// TestKappaSumEdgeless: with m = 0 every κ(R) and every w(R) is 0.
func TestKappaSumEdgeless(t *testing.T) {
	g := graph.MustFromEdges(10, nil)
	col := diffusion.SampleCollection(g, diffusion.NewIC(), 50, diffusion.SampleOptions{Workers: 1, Seed: 1})
	if got, width := KappaSum(g, col, 3, g.M()); got != 0 || width != 0 {
		t.Fatalf("kappaSum=%v width=%d, want 0 and 0 with no edges", got, width)
	}
}

// TestKappaSumCompleteGraph: on a complete certain graph every RR set is
// all of V, so w(R) = m and κ(R) = 1 for every set.
func TestKappaSumCompleteGraph(t *testing.T) {
	g := gen.Complete(6, 1)
	col := diffusion.SampleCollection(g, diffusion.NewIC(), 40, diffusion.SampleOptions{Workers: 1, Seed: 2})
	got, width := KappaSum(g, col, 2, g.M())
	if math.Abs(got-40) > 1e-9 {
		t.Fatalf("kappaSum=%v, want 40 (kappa=1 per set)", got)
	}
	if want := int64(40 * g.M()); width != want {
		t.Fatalf("width sum=%d, want %d (w(R)=m per set)", width, want)
	}
}

// TestKappaSumRange: κ values always land in [0, 1].
func TestKappaSumRange(t *testing.T) {
	g := gen.ChungLuDirected(500, 3000, 2.4, 2.1, rng.New(3))
	graph.AssignWeightedCascade(g)
	col := diffusion.SampleCollection(g, diffusion.NewIC(), 200, diffusion.SampleOptions{Workers: 1, Seed: 4})
	sum, _ := KappaSum(g, col, 10, g.M())
	if sum < 0 || sum > float64(col.Count()) {
		t.Fatalf("kappaSum=%v outside [0, %d]", sum, col.Count())
	}
}

// TestEstimateKPTIsLowerBoundOfOPT verifies Theorem 2's guarantee
// statistically: KPT* <= OPT. OPT is upper-bounded by n and
// lower-bounded by the best measured spread.
func TestEstimateKPTIsLowerBoundOfOPT(t *testing.T) {
	g := gen.ChungLuDirected(1000, 6000, 2.4, 2.1, rng.New(5))
	graph.AssignWeightedCascade(g)
	const k = 5
	est := estimateKPT(context.Background(), g, diffusion.NewIC(), diffusion.SampleConfig{}, float64(g.N()), k, 1, 1, newSeedSequence(6))
	if est.kptStar < 1 {
		t.Fatalf("KPT*=%v below the minimum 1", est.kptStar)
	}
	// Find a decent seed set and measure its spread: that is a lower
	// bound of OPT; KPT* must not exceed OPT. With Theorem 2 holding
	// with probability 1-n^-l, KPT* <= OPT; we test against an upper
	// bound: spread(TIM+ seeds)/(1-1/e-eps) * slack.
	res, err := Maximize(g, diffusion.NewIC(), Options{K: k, Epsilon: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	measured := spread.Estimate(g, diffusion.NewIC(), res.Seeds, spread.Options{Samples: 20000, Seed: 8})
	optUpper := measured / (1 - 1/math.E - 0.2) * 1.2
	if est.kptStar > optUpper {
		t.Fatalf("KPT* %v above OPT upper bound %v", est.kptStar, optUpper)
	}
}

// TestEstimateKPTTracksNmEPT verifies Lemma 4's direction: KPT >=
// (n/m)·EPT, so KPT* (≈ KPT/2 or better) should not be wildly below the
// width-implied bound.
func TestEstimateKPTTracksNmEPT(t *testing.T) {
	g := gen.ChungLuDirected(2000, 12000, 2.4, 2.1, rng.New(9))
	graph.AssignWeightedCascade(g)
	est := estimateKPT(context.Background(), g, diffusion.NewIC(), diffusion.SampleConfig{}, float64(g.N()), 10, 1, 1, newSeedSequence(10))
	nmEPT := float64(g.N()) / float64(g.M()) * est.ept
	// Theorem 2: KPT* >= KPT/4 >= (n/m)EPT/4 with high probability.
	if est.kptStar < nmEPT/4*0.5 { // extra 2x slack for sampling noise
		t.Fatalf("KPT*=%v far below (n/m)EPT/4=%v", est.kptStar, nmEPT/4)
	}
}

// TestEstimateKPTLastBatchUsable: Algorithm 3 depends on the final
// iteration's RR sets being returned.
func TestEstimateKPTLastBatchUsable(t *testing.T) {
	g := gen.ChungLuDirected(500, 3000, 2.4, 2.1, rng.New(11))
	graph.AssignWeightedCascade(g)
	est := estimateKPT(context.Background(), g, diffusion.NewIC(), diffusion.SampleConfig{}, float64(g.N()), 5, 1, 1, newSeedSequence(12))
	if est.lastBatch == nil || est.lastBatch.Count() == 0 {
		t.Fatal("no last batch returned")
	}
	ci := stats.SampleScheduleCi(g.N(), 1, est.iterations)
	if int64(est.lastBatch.Count()) != ci {
		t.Fatalf("last batch has %d sets, expected c_%d = %d",
			est.lastBatch.Count(), est.iterations, ci)
	}
}

// TestEstimateKPTEdgeless: the algorithm must fall through all
// iterations and return the floor value 1.
func TestEstimateKPTEdgeless(t *testing.T) {
	g := graph.MustFromEdges(64, nil)
	est := estimateKPT(context.Background(), g, diffusion.NewIC(), diffusion.SampleConfig{}, float64(g.N()), 3, 1, 1, newSeedSequence(13))
	if est.kptStar != 1 {
		t.Fatalf("KPT*=%v on an edgeless graph, want 1", est.kptStar)
	}
	if est.iterations != stats.KptIterations(64) {
		t.Fatalf("iterations=%d, want the full schedule %d", est.iterations, stats.KptIterations(64))
	}
}

// TestEstimateKPTStarOnStar: a certain out-star with n-1 leaves has
// KPT dominated by the hub; KPT (mean spread of degree-sampled seeds)
// is large because the only in-edges point at leaves... verify KPT* at
// least reflects a spread above 1.
func TestEstimateKPTStarOnStar(t *testing.T) {
	g := gen.Star(256, 1)
	est := estimateKPT(context.Background(), g, diffusion.NewIC(), diffusion.SampleConfig{}, float64(g.N()), 1, 1, 1, newSeedSequence(14))
	// Every RR set rooted at a leaf is {leaf, hub} with width 1;
	// κ(R) = w/m = 1/255 per leaf-rooted set. KPT = n·E[κ] ≈ 256/255 ≈ 1.
	if est.kptStar < 0.4 || est.kptStar > 4 {
		t.Fatalf("KPT*=%v outside the plausible band around 1", est.kptStar)
	}
}

// TestRefineKPTImproves: on hub-heavy graphs KPT+ should exceed KPT*
// (that is Algorithm 3's entire purpose, Figure 5).
func TestRefineKPTImproves(t *testing.T) {
	g := gen.ChungLuDirected(3000, 20000, 2.4, 2.1, rng.New(15))
	graph.AssignWeightedCascade(g)
	model := diffusion.NewIC()
	seeds := newSeedSequence(16)
	est := estimateKPT(context.Background(), g, model, diffusion.SampleConfig{}, float64(g.N()), 20, 1, 1, seeds)
	kptPlus := refineKPT(context.Background(), g, model, diffusion.SampleConfig{}, float64(g.N()), maxcover.Constraints{K: 20}, est.lastBatch, est.kptStar, 0.3, 1, 1, seeds)
	if kptPlus < est.kptStar {
		t.Fatalf("KPT+ %v < KPT* %v", kptPlus, est.kptStar)
	}
	if kptPlus < 1.5*est.kptStar {
		t.Logf("note: refinement gain modest on this instance: %v -> %v", est.kptStar, kptPlus)
	}
}

// TestRefineKPTIsLowerBound: KPT+ <= OPT with slack (Lemma 8).
func TestRefineKPTIsLowerBound(t *testing.T) {
	g := gen.ChungLuDirected(1500, 9000, 2.4, 2.1, rng.New(17))
	graph.AssignWeightedCascade(g)
	model := diffusion.NewIC()
	const k = 10
	seeds := newSeedSequence(18)
	est := estimateKPT(context.Background(), g, model, diffusion.SampleConfig{}, float64(g.N()), k, 1, 1, seeds)
	kptPlus := refineKPT(context.Background(), g, model, diffusion.SampleConfig{}, float64(g.N()), maxcover.Constraints{K: k}, est.lastBatch, est.kptStar, 0.3, 1, 1, seeds)
	res, err := Maximize(g, model, Options{K: k, Epsilon: 0.2, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	measured := spread.Estimate(g, model, res.Seeds, spread.Options{Samples: 20000, Seed: 20})
	optUpper := measured / (1 - 1/math.E - 0.2) * 1.2
	if kptPlus > optUpper {
		t.Fatalf("KPT+ %v above OPT upper bound %v", kptPlus, optUpper)
	}
}

// TestRefineKPTDegenerateInputs: nil batch or non-positive KPT* pass
// through unchanged.
func TestRefineKPTDegenerateInputs(t *testing.T) {
	g := gen.Path(10, 0.5)
	model := diffusion.NewIC()
	if got := refineKPT(context.Background(), g, model, diffusion.SampleConfig{}, float64(g.N()), maxcover.Constraints{K: 2}, nil, 5, 0.3, 1, 1, newSeedSequence(1)); got != 5 {
		t.Fatalf("nil batch: got %v, want passthrough 5", got)
	}
	col := diffusion.SampleCollection(g, model, 10, diffusion.SampleOptions{Workers: 1, Seed: 2})
	if got := refineKPT(context.Background(), g, model, diffusion.SampleConfig{}, float64(g.N()), maxcover.Constraints{K: 2}, col, 0, 0.3, 1, 1, newSeedSequence(3)); got != 0 {
		t.Fatalf("zero KPT*: got %v, want passthrough 0", got)
	}
}

// TestSeedSequenceDeterministic: the per-batch seed dealer reproduces.
func TestSeedSequenceDeterministic(t *testing.T) {
	a, b := newSeedSequence(42), newSeedSequence(42)
	for i := 0; i < 20; i++ {
		if a.next() != b.next() {
			t.Fatal("seed sequences diverged")
		}
	}
	c := newSeedSequence(43)
	if c.next() == newSeedSequence(42).next() {
		t.Fatal("different masters produced the same first seed")
	}
}

// TestEptEstimatePositive: EPT estimates must be positive on any graph
// with edges.
func TestEptEstimatePositive(t *testing.T) {
	g := gen.Cycle(50, 0.5)
	est := estimateKPT(context.Background(), g, diffusion.NewIC(), diffusion.SampleConfig{}, float64(g.N()), 2, 1, 1, newSeedSequence(21))
	if est.ept <= 0 {
		t.Fatalf("EPT estimate %v", est.ept)
	}
	// On a cycle every node has in-degree 1, so every RR set of size s
	// has width s; EPT equals the expected RR size, which is at least 1.
	if est.ept < 1 {
		t.Fatalf("EPT %v below 1 on a cycle", est.ept)
	}
}
