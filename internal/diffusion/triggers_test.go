package diffusion

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestBoundedTriggerCap(t *testing.T) {
	// In-star with certain weights: unbounded IC would trigger on all
	// 9 in-neighbors; BoundedTrigger keeps at most 3.
	g := gen.InStar(10, 1)
	bt := BoundedTrigger{Max: 3}
	r := rng.New(1)
	for trial := 0; trial < 100; trial++ {
		set := bt.AppendTrigger(nil, g, 0, r)
		if len(set) != 3 {
			t.Fatalf("trigger size %d, want 3", len(set))
		}
		seen := map[uint32]bool{}
		for _, u := range set {
			if seen[u] || u == 0 || int(u) >= g.N() {
				t.Fatalf("bad trigger set %v", set)
			}
			seen[u] = true
		}
	}
}

func TestBoundedTriggerUniformAmongSuccesses(t *testing.T) {
	// All 5 in-neighbors certain, Max=1: each must be kept ~uniformly.
	g := gen.InStar(6, 1)
	bt := BoundedTrigger{Max: 1}
	r := rng.New(2)
	counts := map[uint32]int{}
	const trials = 50000
	for i := 0; i < trials; i++ {
		set := bt.AppendTrigger(nil, g, 0, r)
		if len(set) != 1 {
			t.Fatalf("size %d", len(set))
		}
		counts[set[0]]++
	}
	for u, c := range counts {
		if math.Abs(float64(c)-trials/5) > trials/5*0.1 {
			t.Fatalf("neighbor %d kept %d times, want about %d", u, c, trials/5)
		}
	}
}

func TestBoundedTriggerDefaultsMaxOne(t *testing.T) {
	g := gen.InStar(4, 1)
	set := BoundedTrigger{}.AppendTrigger(nil, g, 0, rng.New(3))
	if len(set) != 1 {
		t.Fatalf("zero Max should behave as 1, got %v", set)
	}
}

func TestScaledICTriggerZeroAndIdentity(t *testing.T) {
	g := gen.InStar(5, 0.5)
	r := rng.New(4)
	if set := (ScaledICTrigger{Factor: 0}).AppendTrigger(nil, g, 0, r); len(set) != 0 {
		t.Fatalf("factor 0 produced %v", set)
	}
	// Factor large enough to clamp every probability to 1.
	if set := (ScaledICTrigger{Factor: 10}).AppendTrigger(nil, g, 0, r); len(set) != 4 {
		t.Fatalf("clamped factor produced %v", set)
	}
}

func TestScaledICTriggerRate(t *testing.T) {
	g := gen.InStar(2, 0.5)
	s := ScaledICTrigger{Factor: 0.5} // effective p = 0.25
	r := rng.New(5)
	hits := 0
	const trials = 40000
	for i := 0; i < trials; i++ {
		if len(s.AppendTrigger(nil, g, 0, r)) == 1 {
			hits++
		}
	}
	rate := float64(hits) / trials
	if math.Abs(rate-0.25) > 0.01 {
		t.Fatalf("rate %v, want 0.25", rate)
	}
}

func TestTopWeightTrigger(t *testing.T) {
	g := graph.MustFromEdges(4, []graph.Edge{
		{From: 1, To: 0, Weight: 0.2},
		{From: 2, To: 0, Weight: 0.9},
		{From: 3, To: 0, Weight: 0.5},
	})
	set := TopWeightTrigger{Top: 2}.AppendTrigger(nil, g, 0, rng.New(6))
	if len(set) != 2 {
		t.Fatalf("set=%v", set)
	}
	got := map[uint32]bool{set[0]: true, set[1]: true}
	if !got[2] || !got[3] {
		t.Fatalf("want the two heaviest in-neighbors {2,3}, got %v", set)
	}
	// Top larger than in-degree returns everything.
	all := TopWeightTrigger{Top: 9}.AppendTrigger(nil, g, 0, rng.New(7))
	if len(all) != 3 {
		t.Fatalf("all=%v", all)
	}
}

func TestCustomTriggersRunEndToEnd(t *testing.T) {
	g := gen.ChungLuDirected(200, 1200, 2.4, 2.1, rng.New(8))
	graph.AssignWeightedCascade(g)
	for _, ts := range []TriggerSampler{
		BoundedTrigger{Max: 2},
		ScaledICTrigger{Factor: 0.5},
		TopWeightTrigger{Top: 1},
	} {
		model := NewTriggering(ts)
		sim := NewSimulator(g, model)
		r := rng.New(9)
		total := 0
		for i := 0; i < 200; i++ {
			total += sim.Run(r, []uint32{0, 1})
		}
		if total < 400 {
			t.Fatalf("%T: cascades below seed floor", ts)
		}
		sampler := NewRRSampler(g, model)
		var buf []uint32
		for i := 0; i < 200; i++ {
			buf = sampler.Sample(r, buf[:0])
			if len(buf) == 0 {
				t.Fatalf("%T: empty RR set", ts)
			}
		}
	}
}

// TestBoundedTriggerReducesSpread: capping the triggering set can only
// reduce spread relative to plain IC.
func TestBoundedTriggerReducesSpread(t *testing.T) {
	g := gen.ChungLuDirected(500, 5000, 2.4, 2.1, rng.New(10))
	graph.AssignWeightedCascade(g)
	seeds := []uint32{0, 1, 2, 3, 4}
	meanOf := func(m Model, seed uint64) float64 {
		sim := NewSimulator(g, m)
		r := rng.New(seed)
		const trials = 10000
		total := 0
		for i := 0; i < trials; i++ {
			total += sim.Run(r, seeds)
		}
		return float64(total) / trials
	}
	ic := meanOf(NewIC(), 11)
	bounded := meanOf(NewTriggering(BoundedTrigger{Max: 1}), 12)
	if bounded > ic+0.5 {
		t.Fatalf("bounded trigger spread %v exceeds IC %v", bounded, ic)
	}
}
