package diffusion

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

func TestCollectionAppend(t *testing.T) {
	col := &RRCollection{}
	col.Append([]uint32{1, 2, 3})
	col.Append([]uint32{4})
	col.Append(nil)
	if col.Count() != 3 {
		t.Fatalf("count=%d", col.Count())
	}
	if got := col.Set(0); len(got) != 3 || got[0] != 1 {
		t.Fatalf("set0=%v", got)
	}
	if got := col.Set(1); len(got) != 1 || got[0] != 4 {
		t.Fatalf("set1=%v", got)
	}
	if got := col.Set(2); len(got) != 0 {
		t.Fatalf("set2=%v", got)
	}
	if col.TotalNodes() != 4 {
		t.Fatalf("nodes=%d", col.TotalNodes())
	}
	if col.MemoryBytes() <= 0 {
		t.Fatal("memory bytes not positive")
	}
}

func TestCollectionMerge(t *testing.T) {
	a := &RRCollection{}
	a.Append([]uint32{1})
	a.Append([]uint32{2, 3})
	b := &RRCollection{}
	b.Append([]uint32{5})
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("count=%d", a.Count())
	}
	if got := a.Set(2); len(got) != 1 || got[0] != 5 {
		t.Fatalf("merged set=%v", got)
	}
}

func TestCollectionMergeIntoEmpty(t *testing.T) {
	a := &RRCollection{}
	b := &RRCollection{}
	b.Append([]uint32{9, 8})
	a.Merge(b)
	if a.Count() != 1 || a.Set(0)[1] != 8 {
		t.Fatalf("merge into empty: %+v", a)
	}
}

func TestSampleCollectionCount(t *testing.T) {
	g := gen.Cycle(30, 0.5)
	for _, workers := range []int{1, 3, 8} {
		col := SampleCollection(g, NewIC(), 100, SampleOptions{Workers: workers, Seed: 1})
		if col.Count() != 100 {
			t.Fatalf("workers=%d: count=%d", workers, col.Count())
		}
		if col.TotalNodes() < 100 {
			t.Fatalf("workers=%d: every set contains at least its root", workers)
		}
	}
}

func TestSampleCollectionZeroAndEmpty(t *testing.T) {
	g := gen.Cycle(5, 0.5)
	col := SampleCollection(g, NewIC(), 0, SampleOptions{Seed: 1})
	if col.Count() != 0 {
		t.Fatalf("count=%d", col.Count())
	}
	empty := graph.MustFromEdges(0, nil)
	col = SampleCollection(empty, NewIC(), 10, SampleOptions{Seed: 1})
	if col.Count() != 0 {
		t.Fatalf("empty graph count=%d", col.Count())
	}
}

func TestSampleCollectionDeterministicPerWorkerCount(t *testing.T) {
	g := gen.ErdosRenyiGnm(50, 250, rng.New(2))
	graph.AssignWeightedCascade(g)
	a := SampleCollection(g, NewIC(), 64, SampleOptions{Workers: 4, Seed: 9})
	b := SampleCollection(g, NewIC(), 64, SampleOptions{Workers: 4, Seed: 9})
	if a.Count() != b.Count() || a.TotalNodes() != b.TotalNodes() {
		t.Fatal("same (seed, workers) produced different collections")
	}
	for i := range a.Flat {
		if a.Flat[i] != b.Flat[i] {
			t.Fatalf("flat arena differs at %d", i)
		}
	}
}

func TestSampleCollectionSeedMatters(t *testing.T) {
	g := gen.ErdosRenyiGnm(50, 250, rng.New(3))
	graph.AssignWeightedCascade(g)
	a := SampleCollection(g, NewIC(), 64, SampleOptions{Workers: 2, Seed: 1})
	b := SampleCollection(g, NewIC(), 64, SampleOptions{Workers: 2, Seed: 2})
	same := a.TotalNodes() == b.TotalNodes()
	if same {
		diff := false
		for i := range a.Flat {
			if i < len(b.Flat) && a.Flat[i] != b.Flat[i] {
				diff = true
				break
			}
		}
		if !diff {
			t.Fatal("different seeds produced identical collections")
		}
	}
}

func TestSampleCollectionSetsAreDuplicateFree(t *testing.T) {
	g := gen.ChungLuDirected(100, 600, 2.4, 2.1, rng.New(6))
	graph.AssignWeightedCascade(g)
	col := SampleCollection(g, NewIC(), 200, SampleOptions{Workers: 1, Seed: 7})
	seen := map[uint32]int{}
	for i := 0; i < col.Count(); i++ {
		for k := range seen {
			delete(seen, k)
		}
		for _, v := range col.Set(i) {
			seen[v]++
			if seen[v] > 1 {
				t.Fatalf("set %d contains %d twice", i, v)
			}
		}
	}
}

// Property: for any count and worker split, the merged collection holds
// exactly count sets whose first member is a valid node.
func TestSampleCollectionQuick(t *testing.T) {
	g := gen.Cycle(20, 0.3)
	f := func(seed uint64, count uint8, workers uint8) bool {
		c := int64(count%50) + 1
		w := int(workers%8) + 1
		col := SampleCollection(g, NewIC(), c, SampleOptions{Workers: w, Seed: seed})
		if int64(col.Count()) != c {
			return false
		}
		for i := 0; i < col.Count(); i++ {
			set := col.Set(i)
			if len(set) == 0 || int(set[0]) >= g.N() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
