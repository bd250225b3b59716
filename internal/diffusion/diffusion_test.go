package diffusion

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// figure1 is the paper's Figure 1 network, 0-indexed (v1=0, ..., v4=3).
func figure1() *graph.Graph {
	return graph.MustFromEdges(4, []graph.Edge{
		{From: 1, To: 0, Weight: 0.01},
		{From: 1, To: 3, Weight: 0.01},
		{From: 3, To: 0, Weight: 1.0},
		{From: 0, To: 2, Weight: 0.01},
		{From: 2, To: 3, Weight: 0.01},
	})
}

func TestRRSamplerICPathCertain(t *testing.T) {
	// Path 0->1->2->3->4 with p=1: RR set of root v is {0..v}.
	g := gen.Path(5, 1)
	s := NewRRSampler(g, NewIC())
	r := rng.New(1)
	for root := uint32(0); root < 5; root++ {
		rr := s.SampleFrom(r, root, nil)
		if len(rr) != int(root)+1 {
			t.Fatalf("root %d: rr=%v", root, rr)
		}
		// Equation 1: every member but node 0 has in-degree 1.
		if w := Width(g, rr); w != int64(root) {
			t.Fatalf("root %d: width %d, want %d", root, w, root)
		}
		seen := map[uint32]bool{}
		for _, v := range rr {
			if v > root {
				t.Fatalf("root %d: rr contains descendant %d", root, v)
			}
			if seen[v] {
				t.Fatalf("root %d: duplicate %d in rr", root, v)
			}
			seen[v] = true
		}
	}
}

func TestRRSamplerICPathImpossible(t *testing.T) {
	g := gen.Path(5, 0)
	s := NewRRSampler(g, NewIC())
	r := rng.New(1)
	rr := s.SampleFrom(r, 4, nil)
	if len(rr) != 1 || rr[0] != 4 {
		t.Fatalf("rr=%v, want just the root", rr)
	}
	if w := Width(g, rr); w != 1 {
		t.Fatalf("width=%d, want indegree(4)=1", w)
	}
}

func TestRRSamplerICFigure1Root0(t *testing.T) {
	// Root v1 (=0): v4 reaches v1 with probability 1 via the certain
	// edge, v2 with ~0.01(+paths). Over many samples, v4 must appear in
	// nearly every RR set for v1, v2 rarely.
	g := figure1()
	s := NewRRSampler(g, NewIC())
	r := rng.New(7)
	const trials = 20000
	countV4, countV2 := 0, 0
	var buf []uint32
	for i := 0; i < trials; i++ {
		buf = s.SampleFrom(r, 0, buf[:0])
		for _, v := range buf {
			switch v {
			case 3:
				countV4++
			case 1:
				countV2++
			}
		}
	}
	if countV4 != trials {
		t.Fatalf("v4 in %d/%d RR sets for v1; the 1.0 edge must always fire", countV4, trials)
	}
	rate := float64(countV2) / trials
	// P(v2 reaches v1) = 1 - (1-0.01)(1-0.01*...) ≈ 0.02 (two nearly
	// disjoint routes: direct 0.01, and via v4 0.01*1). Allow wide band.
	if rate < 0.01 || rate > 0.04 {
		t.Fatalf("v2 appearance rate %v outside [0.01, 0.04]", rate)
	}
}

func TestRRSamplerMembershipImpliesReachability(t *testing.T) {
	// Every member of an RR set must reach the root in G (with nonzero
	// probability edges only, membership implies a directed path).
	g := gen.ErdosRenyiGnm(60, 240, rng.New(3))
	graph.AssignWeightedCascade(g)
	s := NewRRSampler(g, NewIC())
	r := rng.New(4)
	var buf []uint32
	for trial := 0; trial < 300; trial++ {
		root := uint32(r.Intn(g.N()))
		buf = s.SampleFrom(r, root, buf[:0])
		for _, u := range buf {
			reach := graph.Reachable(g, []uint32{u})
			if !reach[root] {
				t.Fatalf("node %d in RR(%d) but cannot reach it", u, root)
			}
		}
	}
}

func TestRRSamplerLTChain(t *testing.T) {
	// LT RR sets are chains of distinct nodes; on a cycle with full
	// weight they wrap around the whole cycle and stop.
	g := gen.Cycle(6, 1)
	s := NewRRSampler(g, NewLT())
	r := rng.New(5)
	rr := s.SampleFrom(r, 0, nil)
	if len(rr) != 6 {
		t.Fatalf("LT RR on certain cycle: %v", rr)
	}
	seen := map[uint32]bool{}
	for _, v := range rr {
		if seen[v] {
			t.Fatalf("duplicate in LT RR: %v", rr)
		}
		seen[v] = true
	}
}

func TestRRSamplerLTResidualStops(t *testing.T) {
	// In-star with weight 0 edges: root's triggering set is always
	// empty, RR set is only the root.
	g := gen.InStar(5, 0)
	s := NewRRSampler(g, NewLT())
	r := rng.New(6)
	rr := s.SampleFrom(r, 0, nil)
	if len(rr) != 1 {
		t.Fatalf("rr=%v", rr)
	}
	if w := Width(g, rr); w != 4 {
		t.Fatalf("width=%d, want indeg(0)=4", w)
	}
}

func TestRRSamplerDeterminism(t *testing.T) {
	g := gen.ErdosRenyiGnm(40, 160, rng.New(1))
	graph.AssignWeightedCascade(g)
	for _, model := range []Model{NewIC(), NewLT(), NewTriggering(ICTrigger{})} {
		s1 := NewRRSampler(g, model)
		s2 := NewRRSampler(g, model)
		r1, r2 := rng.New(99), rng.New(99)
		var b1, b2 []uint32
		for i := 0; i < 50; i++ {
			b1 = s1.Sample(r1, b1[:0])
			b2 = s2.Sample(r2, b2[:0])
			if len(b1) != len(b2) {
				t.Fatalf("%v: sample %d sizes differ", model, i)
			}
			for j := range b1 {
				if b1[j] != b2[j] {
					t.Fatalf("%v: sample %d differs at %d", model, i, j)
				}
			}
		}
	}
}

func TestSimulatorICPathCertain(t *testing.T) {
	g := gen.Path(5, 1)
	sim := NewSimulator(g, NewIC())
	r := rng.New(1)
	if got := sim.Run(r, []uint32{0}); got != 5 {
		t.Fatalf("spread=%d, want 5", got)
	}
	if got := sim.Run(r, []uint32{3}); got != 2 {
		t.Fatalf("spread=%d, want 2", got)
	}
}

func TestSimulatorICPathImpossible(t *testing.T) {
	g := gen.Path(5, 0)
	sim := NewSimulator(g, NewIC())
	r := rng.New(1)
	if got := sim.Run(r, []uint32{0, 2}); got != 2 {
		t.Fatalf("spread=%d, want 2 (seeds only)", got)
	}
}

func TestSimulatorDuplicateSeeds(t *testing.T) {
	g := gen.Path(4, 0)
	sim := NewSimulator(g, NewIC())
	r := rng.New(1)
	if got := sim.Run(r, []uint32{1, 1, 1}); got != 1 {
		t.Fatalf("spread=%d, want 1", got)
	}
}

func TestSimulatorLTCertainStar(t *testing.T) {
	// Star hub -> leaves with weight 1: hub as seed activates everyone
	// (each leaf has a single in-edge of weight 1 ≥ any threshold...
	// threshold is U[0,1), weight 1 ≥ threshold always).
	g := gen.Star(6, 1)
	sim := NewSimulator(g, NewLT())
	r := rng.New(2)
	for i := 0; i < 20; i++ {
		if got := sim.Run(r, []uint32{0}); got != 6 {
			t.Fatalf("LT star spread=%d, want 6", got)
		}
	}
}

func TestSimulatorLTHalfWeight(t *testing.T) {
	// Single edge with weight 0.5: target activates iff threshold < 0.5,
	// so the two-node spread averages 1.5.
	g := graph.MustFromEdges(2, []graph.Edge{{From: 0, To: 1, Weight: 0.5}})
	sim := NewSimulator(g, NewLT())
	r := rng.New(3)
	const trials = 50000
	total := 0
	for i := 0; i < trials; i++ {
		total += sim.Run(r, []uint32{0})
	}
	mean := float64(total) / trials
	if math.Abs(mean-1.5) > 0.02 {
		t.Fatalf("LT mean spread %v, want about 1.5", mean)
	}
}

func TestSimulatorRunActivated(t *testing.T) {
	g := gen.Path(5, 1)
	sim := NewSimulator(g, NewIC())
	r := rng.New(1)
	got := sim.RunActivated(r, []uint32{2})
	if len(got) != 3 {
		t.Fatalf("activated=%v", got)
	}
	want := map[uint32]bool{2: true, 3: true, 4: true}
	for _, v := range got {
		if !want[v] {
			t.Fatalf("unexpected activation %d", v)
		}
	}
}

func TestICTriggerEquivalence(t *testing.T) {
	// The generic triggering path with ICTrigger must match the IC fast
	// path in mean spread.
	g := gen.ErdosRenyiGnm(80, 400, rng.New(10))
	graph.AssignWeightedCascade(g)
	seeds := []uint32{0, 1, 2}
	meanOf := func(m Model, seed uint64) float64 {
		sim := NewSimulator(g, m)
		r := rng.New(seed)
		const trials = 20000
		total := 0
		for i := 0; i < trials; i++ {
			total += sim.Run(r, seeds)
		}
		return float64(total) / trials
	}
	fast := meanOf(NewIC(), 1)
	generic := meanOf(NewTriggering(ICTrigger{}), 2)
	if math.Abs(fast-generic) > 0.05*fast+0.2 {
		t.Fatalf("IC fast path %v vs triggering path %v", fast, generic)
	}
}

func TestLTTriggerEquivalence(t *testing.T) {
	// LT via thresholds (fast path) and LT via singleton triggering sets
	// must have the same spread distribution (Kempe et al.'s
	// equivalence).
	g := gen.ErdosRenyiGnm(80, 400, rng.New(20))
	graph.AssignRandomNormalizedLT(g, rng.New(21))
	seeds := []uint32{0, 1, 2}
	meanOf := func(m Model, seed uint64) float64 {
		sim := NewSimulator(g, m)
		r := rng.New(seed)
		const trials = 20000
		total := 0
		for i := 0; i < trials; i++ {
			total += sim.Run(r, seeds)
		}
		return float64(total) / trials
	}
	fast := meanOf(NewLT(), 1)
	generic := meanOf(NewTriggering(LTTrigger{}), 2)
	if math.Abs(fast-generic) > 0.05*fast+0.2 {
		t.Fatalf("LT fast path %v vs triggering path %v", fast, generic)
	}
}

// TestCorollary1 checks E[n·F_R(S)] = E[I(S)] (Corollary 1): the fraction
// of random RR sets covered by S, scaled by n, estimates the spread.
func TestCorollary1(t *testing.T) {
	g := gen.ErdosRenyiGnm(50, 250, rng.New(30))
	graph.AssignWeightedCascade(g)
	for _, model := range []Model{NewIC(), NewLT()} {
		seeds := []uint32{0, 7, 13}
		// RR-side estimate.
		s := NewRRSampler(g, model)
		r := rng.New(31)
		const rrTrials = 40000
		covered := 0
		inS := map[uint32]bool{0: true, 7: true, 13: true}
		var buf []uint32
		for i := 0; i < rrTrials; i++ {
			buf = s.Sample(r, buf[:0])
			for _, v := range buf {
				if inS[v] {
					covered++
					break
				}
			}
		}
		rrEst := float64(g.N()) * float64(covered) / rrTrials
		// Forward MC estimate.
		sim := NewSimulator(g, model)
		r2 := rng.New(32)
		const mcTrials = 40000
		total := 0
		for i := 0; i < mcTrials; i++ {
			total += sim.Run(r2, seeds)
		}
		mcEst := float64(total) / mcTrials
		if math.Abs(rrEst-mcEst) > 0.05*mcEst+0.3 {
			t.Fatalf("%v: Corollary 1 violated: RR estimate %v vs MC %v", model, rrEst, mcEst)
		}
	}
}

func TestNewTriggeringNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTriggering(nil) did not panic")
		}
	}()
	NewTriggering(nil)
}

func TestKindString(t *testing.T) {
	if IC.String() != "IC" || LT.String() != "LT" || Triggering.String() != "Triggering" {
		t.Fatal("Kind.String broken")
	}
	if Kind(42).String() == "" {
		t.Fatal("unknown kind empty")
	}
	if NewIC().String() != "IC" {
		t.Fatal("Model.String broken")
	}
}

func TestSelfLoopHarmless(t *testing.T) {
	g := graph.MustFromEdges(2, []graph.Edge{
		{From: 0, To: 0, Weight: 1},
		{From: 0, To: 1, Weight: 1},
	})
	sim := NewSimulator(g, NewIC())
	r := rng.New(1)
	if got := sim.Run(r, []uint32{0}); got != 2 {
		t.Fatalf("spread=%d, want 2", got)
	}
	s := NewRRSampler(g, NewIC())
	rr := s.SampleFrom(r, 0, nil)
	if len(rr) != 1 {
		t.Fatalf("rr=%v, want just root despite self-loop", rr)
	}
}

func BenchmarkRRSampleIC(b *testing.B) {
	g := gen.ChungLuDirected(10000, 100000, 2.4, 2.1, rng.New(1))
	graph.AssignWeightedCascade(g)
	s := NewRRSampler(g, NewIC())
	r := rng.New(2)
	var buf []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.Sample(r, buf[:0])
	}
}

func BenchmarkRRSampleLT(b *testing.B) {
	g := gen.ChungLuDirected(10000, 100000, 2.4, 2.1, rng.New(1))
	graph.AssignRandomNormalizedLT(g, rng.New(3))
	s := NewRRSampler(g, NewLT())
	r := rng.New(2)
	var buf []uint32
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = s.Sample(r, buf[:0])
	}
}

func BenchmarkCascadeIC(b *testing.B) {
	g := gen.ChungLuDirected(10000, 100000, 2.4, 2.1, rng.New(1))
	graph.AssignWeightedCascade(g)
	sim := NewSimulator(g, NewIC())
	r := rng.New(2)
	seeds := []uint32{0, 1, 2, 3, 4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Run(r, seeds)
	}
}
