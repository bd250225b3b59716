package diffusion

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// fixedRoot is a RootSampler pinned to one node (consuming no randomness
// would break nothing, but consume one draw to exercise stream alignment).
type fixedRoot uint32

func (f fixedRoot) SampleRoot(r *rng.Rand) uint32 {
	_ = r.Uint64()
	return uint32(f)
}

// pathGraph builds 0 -> 1 -> ... -> n-1 with probability-1 edges, so RR
// sets are fully determined by the root and the horizon.
func pathGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{From: uint32(i), To: uint32(i + 1), Weight: 1})
	}
	return graph.MustFromEdges(n, edges)
}

// TestZeroConfigBitIdentical: collections sampled through the config path
// with a zero config must be byte-identical to the legacy path.
func TestZeroConfigBitIdentical(t *testing.T) {
	g := pathGraph(50)
	for _, model := range []Model{NewIC(), NewLT()} {
		legacy := SampleCollection(g, model, 200, SampleOptions{Workers: 3, Seed: 7})
		cfg := SampleCollection(g, model, 200, SampleOptions{Workers: 3, Seed: 7, Config: SampleConfig{}})
		if !reflect.DeepEqual(legacy.Flat, cfg.Flat) || !reflect.DeepEqual(legacy.Off, cfg.Off) {
			t.Fatalf("%v: zero config diverged from legacy sampling", model)
		}
	}
}

// TestMaxHopsIC: on the deterministic path graph an RR set rooted at v
// holds exactly the ≤ MaxHops predecessors of v.
func TestMaxHopsIC(t *testing.T) {
	g := pathGraph(10)
	const hops = 3
	s := NewRRSamplerConfig(g, NewIC(), SampleConfig{MaxHops: hops})
	r := rng.New(1)
	set := s.SampleFrom(r, 9, nil)
	want := []uint32{9, 8, 7, 6}
	if !reflect.DeepEqual(set, want) {
		t.Fatalf("3-hop RR set %v, want %v", set, want)
	}
}

func TestMaxHopsLT(t *testing.T) {
	g := pathGraph(10)
	s := NewRRSamplerConfig(g, NewLT(), SampleConfig{MaxHops: 2})
	r := rng.New(2)
	set := s.SampleFrom(r, 9, nil)
	if len(set) > 3 {
		t.Fatalf("2-hop LT chain %v longer than 3 nodes", set)
	}
	if set[0] != 9 {
		t.Fatalf("root missing: %v", set)
	}
}

// TestMaxHopsSubset: a capped sample from the same stream is a prefix-
// closed subset of the uncapped one on any graph (BFS order agrees until
// the horizon binds).
func TestMaxHopsSubset(t *testing.T) {
	g := pathGraph(40)
	for _, model := range []Model{NewIC(), NewLT()} {
		full := NewRRSampler(g, model)
		capped := NewRRSamplerConfig(g, model, SampleConfig{MaxHops: 2})
		for i := 0; i < 200; i++ {
			r1, r2 := rng.New(uint64(i)), rng.New(uint64(i))
			fullSet := full.Sample(r1, nil)
			cappedSet := capped.Sample(r2, nil)
			if len(cappedSet) > len(fullSet) {
				t.Fatalf("%v: capped %v larger than full %v", model, cappedSet, fullSet)
			}
			if !reflect.DeepEqual(fullSet[:len(cappedSet)], cappedSet) {
				t.Fatalf("%v: capped %v is not a prefix of full %v", model, cappedSet, fullSet)
			}
		}
	}
}

func TestWeightedRootsDriveSampling(t *testing.T) {
	g := pathGraph(20)
	col := SampleCollection(g, NewIC(), 100, SampleOptions{
		Workers: 2, Seed: 3, Config: SampleConfig{Roots: fixedRoot(5)},
	})
	for i := 0; i < col.Count(); i++ {
		if col.Set(i)[0] != 5 {
			t.Fatalf("set %d rooted at %d, want 5", i, col.Set(i)[0])
		}
	}
}

// TestExtendConfigPrefixDeterminism: the constrained extension path keeps
// the warm-cache guarantee — extending to θ₁ then θ₂ equals sampling θ₂
// cold, per (seed, cfg).
func TestExtendConfigPrefixDeterminism(t *testing.T) {
	g := pathGraph(30)
	cfg := SampleConfig{Roots: fixedRoot(17), MaxHops: 4}
	model := NewIC()

	warm := &RRCollection{Off: []int64{0}}
	if err := ExtendCollectionConfig(context.Background(), g, model, cfg, warm, 40, 9, 2); err != nil {
		t.Fatal(err)
	}
	if err := ExtendCollectionConfig(context.Background(), g, model, cfg, warm, 100, 9, 3); err != nil {
		t.Fatal(err)
	}
	cold := &RRCollection{Off: []int64{0}}
	if err := ExtendCollectionConfig(context.Background(), g, model, cfg, cold, 100, 9, 1); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(warm.Flat, cold.Flat) || !reflect.DeepEqual(warm.Off, cold.Off) {
		t.Fatal("warm extension diverged from cold sample under config")
	}
}

func TestRunHorizonForward(t *testing.T) {
	// Forward cascade on the path graph: seeds {0}, horizon 3 activates
	// nodes 0..3 under IC with p=1.
	g := pathGraph(10)
	sim := NewSimulator(g, NewIC())
	r := rng.New(4)
	if got := sim.RunHorizon(r, []uint32{0}, 3); got != 4 {
		t.Fatalf("3-hop forward cascade activated %d, want 4", got)
	}
	if got := sim.Run(r, []uint32{0}); got != 10 {
		t.Fatalf("unbounded cascade activated %d, want 10", got)
	}
	active := sim.RunActivatedHorizon(r, []uint32{0}, 2)
	if !reflect.DeepEqual(active, []uint32{0, 1, 2}) {
		t.Fatalf("2-hop activation set %v", active)
	}
}
