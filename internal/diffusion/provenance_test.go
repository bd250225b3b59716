package diffusion

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// TestSampleTracedMatchesSample: tracing must not change the random draws
// — the member set from SampleTraced equals Sample's from the
// same stream, for every model family.
func TestSampleTracedMatchesSample(t *testing.T) {
	g := gen.ErdosRenyiGnm(200, 900, rng.New(7))
	graph.AssignWeightedCascade(g)
	models := map[string]Model{
		"ic":            NewIC(),
		"lt":            NewLT(),
		"ic-as-trigger": NewTriggering(ICTrigger{}),
	}
	for name, model := range models {
		plain := NewRRSampler(g, model)
		traced := NewRRSampler(g, model)
		for i := 0; i < 200; i++ {
			r1 := rng.New(uint64(i) * 31)
			r2 := rng.New(uint64(i) * 31)
			set1 := plain.Sample(r1, nil)
			set2, trace := traced.SampleTraced(r2, nil, nil)
			if len(set1) != len(set2) {
				t.Fatalf("%s sample %d: traced diverged: size %d vs %d",
					name, i, len(set1), len(set2))
			}
			for j := range set1 {
				if set1[j] != set2[j] {
					t.Fatalf("%s sample %d: member %d differs: %d vs %d", name, i, j, set1[j], set2[j])
				}
			}
			if len(trace) != len(set2)-1 {
				t.Fatalf("%s sample %d: %d members need %d discovery edges, got %d",
					name, i, len(set2), len(set2)-1, len(trace))
			}
			// The post-sample rng states must agree too: the traced path
			// consumed exactly the same draws.
			if r1.Uint64() != r2.Uint64() {
				t.Fatalf("%s sample %d: rng streams diverged", name, i)
			}
		}
	}
}

// TestSampleTracedStructure: every discovery edge exists in G, points from
// a later-discovered member to an earlier one, and the union of discovery
// edges spans the set (each non-root member appears exactly once as From).
func TestSampleTracedStructure(t *testing.T) {
	g := gen.ErdosRenyiGnm(150, 700, rng.New(11))
	graph.AssignWeightedCascade(g)
	for _, model := range []Model{NewIC(), NewLT()} {
		s := NewRRSampler(g, model)
		r := rng.New(99)
		for i := 0; i < 100; i++ {
			set, trace := s.SampleTraced(r, nil, nil)
			pos := make(map[uint32]int, len(set))
			for j, v := range set {
				pos[v] = j
			}
			seen := make(map[uint32]bool, len(trace))
			for _, e := range trace {
				if !edgeExists(g, e.From, e.To) {
					t.Fatalf("%v: trace edge %d->%d not in graph", model, e.From, e.To)
				}
				pf, okF := pos[e.From]
				pt, okT := pos[e.To]
				if !okF || !okT {
					t.Fatalf("%v: trace edge %d->%d has a non-member endpoint", model, e.From, e.To)
				}
				if pf <= pt {
					t.Fatalf("%v: discovery edge %d->%d does not point backwards in discovery order", model, e.From, e.To)
				}
				if seen[e.From] {
					t.Fatalf("%v: member %d discovered twice", model, e.From)
				}
				seen[e.From] = true
			}
			if len(seen) != len(set)-1 {
				t.Fatalf("%v: %d members, %d discovered", model, len(set), len(seen))
			}
		}
	}
}

// TestTraceCollection exercises the arena container.
func TestTraceCollection(t *testing.T) {
	var c TraceCollection
	c.Append([]TraceEdge{{1, 2}, {3, 4}})
	c.Append(nil)
	c.Append([]TraceEdge{{5, 6}})
	if c.Count() != 3 {
		t.Fatalf("count = %d", c.Count())
	}
	if got := c.Set(0); len(got) != 2 || got[1] != (TraceEdge{3, 4}) {
		t.Fatalf("set 0 = %v", got)
	}
	if got := c.Set(1); len(got) != 0 {
		t.Fatalf("set 1 = %v", got)
	}
	if got := c.Set(2); len(got) != 1 || got[0] != (TraceEdge{5, 6}) {
		t.Fatalf("set 2 = %v", got)
	}
	if c.MemoryBytes() <= 0 {
		t.Fatal("memory accounting")
	}
}
