package tiered

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/tim"
)

func TestPlannerColdNeverEscalates(t *testing.T) {
	p := NewPlanner(nil)
	// No RIS observation yet: a budgeted query must not gamble on RIS.
	d := p.Plan("ds|ic", 10000, 10, 0.1, 1, 50, 0, true)
	if d.Tier != TierFast {
		t.Fatalf("cold budgeted plan = %v, want fast", d.Tier)
	}
	// ... and with the fast tier forbidden (confidence floor), it sheds.
	d = p.Plan("ds|ic", 10000, 10, 0.1, 1, 50, 0.3, true)
	if d.Tier != TierShed {
		t.Fatalf("cold confident plan = %v, want shed", d.Tier)
	}
	// Unbudgeted queries always run RIS at the requested ε.
	d = p.Plan("ds|ic", 10000, 10, 0.1, 1, 0, 0, true)
	if d.Tier != TierRIS || d.Epsilon != 0.1 {
		t.Fatalf("unbudgeted plan = %+v", d)
	}
}

func TestPlannerEscalatesAlongLadder(t *testing.T) {
	p := NewPlanner(nil)
	const key = "ds|ic"
	n, k, ell := 10000, 10, 1.0
	// Calibrate: one observation at ε=0.1 predicts every rung by λ
	// rescaling. Make ε=0.1 cost 100ms.
	p.ObserveRIS(key, n, k, 0.1, ell, 100)

	// A generous budget keeps the requested ε.
	d := p.Plan(key, n, k, 0.1, ell, 1000, 0, true)
	if d.Tier != TierRIS || d.Epsilon != 0.1 {
		t.Fatalf("generous budget plan = %+v", d)
	}

	// λ ∝ 1/ε², so ε=0.3 costs ≈ 100·(0.1/0.3)² ≈ 11ms (the λ ratio is
	// not exactly (ε₁/ε₂)² because of the additive log terms, so compute
	// it). Pick a budget that only the coarse rungs fit.
	cost := func(eps float64) float64 {
		return 100 * stats.Lambda(n, k, eps, ell) / stats.Lambda(n, k, 0.1, ell)
	}
	budget := cost(0.3) * 1.5
	d = p.Plan(key, n, k, 0.1, ell, budget, 0, true)
	if d.Tier != TierRIS {
		t.Fatalf("tight budget plan = %+v, want ris", d)
	}
	if d.Epsilon != 0.3 {
		t.Fatalf("tight budget rung = %g, want 0.3 (cost(0.2)=%.1f, cost(0.3)=%.1f, budget=%.1f)",
			d.Epsilon, cost(0.2), cost(0.3), budget)
	}
	if want := tim.ApproxFactor(0.3); d.Confidence != want {
		t.Fatalf("confidence = %g, want %g", d.Confidence, want)
	}

	// A budget below every rung falls back to fast.
	d = p.Plan(key, n, k, 0.1, ell, cost(0.5)*0.5, 0, true)
	if d.Tier != TierFast {
		t.Fatalf("micro budget plan = %+v, want fast", d)
	}

	// min_confidence forbids coarse rungs: with the budget only fitting
	// ε≥0.3 but the floor demanding ε≤0.2, the query sheds.
	minConf := tim.ApproxFactor(0.2)
	d = p.Plan(key, n, k, 0.1, ell, cost(0.3)*1.5, minConf, true)
	if d.Tier != TierShed {
		t.Fatalf("confidence-floored plan = %+v, want shed", d)
	}
}

func TestPlannerFastNotOK(t *testing.T) {
	p := NewPlanner(nil)
	// Constrained queries (fastOK=false) shed rather than answer
	// heuristically.
	d := p.Plan("ds|ic", 10000, 10, 0.1, 1, 50, 0, false)
	if d.Tier != TierShed {
		t.Fatalf("fast-forbidden plan = %v, want shed", d.Tier)
	}
}

func TestPlannerLadderNormalization(t *testing.T) {
	p := NewPlanner([]float64{0.5, 0.1, 0.5, 0.3})
	want := []float64{0.1, 0.3, 0.5}
	got := p.Ladder()
	if len(got) != len(want) {
		t.Fatalf("ladder = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ladder = %v, want %v", got, want)
		}
	}
}

func TestPredictRISCold(t *testing.T) {
	p := NewPlanner(nil)
	if pred := p.PredictRIS("nope", 1000, 5, 0.1, 1); !math.IsInf(pred, 1) {
		t.Fatalf("cold prediction = %v, want +Inf", pred)
	}
}
