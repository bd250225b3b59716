package diskrr

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/rng"
)

func spillCollection(t testing.TB, col *diffusion.RRCollection) *Collection {
	t.Helper()
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < col.Count(); i++ {
		if err := w.Append(col.Set(i)); err != nil {
			t.Fatal(err)
		}
	}
	disk, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { disk.Close() })
	return disk
}

func TestWriterRoundTrip(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sets := [][]uint32{{1, 2, 3}, {7}, {}, {4, 5}}
	for _, s := range sets {
		if err := w.Append(s); err != nil {
			t.Fatal(err)
		}
	}
	col, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if col.Count() != 4 || col.TotalNodes() != 6 {
		t.Fatalf("col=%+v", col)
	}
	var got [][]uint32
	err = col.Scan(func(i int64, set []uint32) error {
		got = append(got, append([]uint32(nil), set...))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sets) {
		t.Fatalf("scanned %d sets", len(got))
	}
	for i := range sets {
		if len(got[i]) != len(sets[i]) {
			t.Fatalf("set %d: %v vs %v", i, got[i], sets[i])
		}
		for j := range sets[i] {
			if got[i][j] != sets[i][j] {
				t.Fatalf("set %d: %v vs %v", i, got[i], sets[i])
			}
		}
	}
}

func TestScanTwice(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Append([]uint32{1})
	_ = w.Append([]uint32{2})
	col, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	for round := 0; round < 2; round++ {
		n := 0
		if err := col.Scan(func(i int64, set []uint32) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		if n != 2 {
			t.Fatalf("round %d scanned %d", round, n)
		}
	}
}

func TestAppendAfterFinishFails(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if err := w.Append([]uint32{1}); err == nil {
		t.Fatal("append after Finish accepted")
	}
	if _, err := w.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
}

func TestAbortRemovesFile(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Append([]uint32{1})
	w.Abort()
	// The spill file should be gone; creating a new writer still works.
	w2, err := NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w2.Abort()
}

// TestGreedyOutOfCoreMatchesNaive: identical algorithm, different
// storage — results must be exactly equal (both tie-break by lowest id).
func TestGreedyOutOfCoreMatchesNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized cross-check sweep")
	}
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(20)
		col := &diffusion.RRCollection{Off: []int64{0}}
		numSets := r.Intn(60)
		for i := 0; i < numSets; i++ {
			maxSize := 4
			if maxSize > n {
				maxSize = n // size > n would make the dedup loop below spin forever
			}
			size := 1 + r.Intn(maxSize)
			seen := map[uint32]bool{}
			for len(seen) < size {
				seen[uint32(r.Intn(n))] = true
			}
			var s []uint32
			for v := range seen {
				s = append(s, v)
			}
			col.Append(s)
		}
		k := 1 + r.Intn(n)
		disk := spillCollection(t, col)
		got, err := GreedyOutOfCore(n, disk, k)
		if err != nil {
			t.Fatal(err)
		}
		want := maxcover.GreedyNaive(n, col, k)
		if got.Covered != want.Covered || len(got.Seeds) != len(want.Seeds) {
			return false
		}
		for i := range want.Seeds {
			if got.Seeds[i] != want.Seeds[i] || got.Marginals[i] != want.Marginals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyOutOfCoreRealisticGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("heavy out-of-core pass")
	}
	g := gen.ChungLuDirected(400, 2400, 2.4, 2.1, rng.New(1))
	graph.AssignWeightedCascade(g)
	col := diffusion.SampleCollection(g, diffusion.NewIC(), 2000, diffusion.SampleOptions{Workers: 1, Seed: 2})
	disk := spillCollection(t, col)
	got, err := GreedyOutOfCore(g.N(), disk, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := maxcover.GreedyNaive(g.N(), col, 10)
	if got.Covered != want.Covered {
		t.Fatalf("out-of-core covered %d, in-memory %d", got.Covered, want.Covered)
	}
	for i := range want.Seeds {
		if got.Seeds[i] != want.Seeds[i] {
			t.Fatalf("seed %d: %d vs %d", i, got.Seeds[i], want.Seeds[i])
		}
	}
}

func TestGreedyOutOfCoreDegenerate(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	col, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	res, err := GreedyOutOfCore(5, col, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeds) != 3 || res.Covered != 0 {
		t.Fatalf("res=%+v", res)
	}
	res, err = GreedyOutOfCore(0, col, 3)
	if err != nil || len(res.Seeds) != 0 {
		t.Fatalf("n=0: %+v %v", res, err)
	}
	res, err = GreedyOutOfCore(5, col, -1)
	if err != nil || len(res.Seeds) != 0 {
		t.Fatalf("k<0: %+v %v", res, err)
	}
}

// TestGreedyOutOfCoreRejectsOutOfRangeID: a stored id ≥ n fails typed
// instead of indexing past the counters.
func TestGreedyOutOfCoreRejectsOutOfRangeID(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]uint32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Append([]uint32{2, 5}); err != nil {
		t.Fatal(err)
	}
	col, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	if _, err := GreedyOutOfCore(5, col, 2); !errors.Is(err, ErrSpillFormat) {
		t.Fatalf("id 5 in a 5-node scan: error %v, want ErrSpillFormat", err)
	}
}

func TestBitmap(t *testing.T) {
	b := newBitmap(130)
	for _, i := range []int64{0, 1, 63, 64, 127, 129} {
		if b.get(i) {
			t.Fatalf("bit %d set initially", i)
		}
		b.set(i)
		if !b.get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.get(2) || b.get(65) || b.get(128) {
		t.Fatal("neighbor bits disturbed")
	}
}

func TestDiskBytes(t *testing.T) {
	w, err := NewWriter(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_ = w.Append([]uint32{1, 2})
	_ = w.Append([]uint32{3})
	col, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	// 2 headers + 3 members = 5 uint32s.
	if col.DiskBytes() != 20 {
		t.Fatalf("disk bytes=%d, want 20", col.DiskBytes())
	}
}
