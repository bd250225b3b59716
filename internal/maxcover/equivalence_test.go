package maxcover

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// rrCollection samples sets IC RR sets, weighted-cascade weights, on the
// named gen profile at the given scale.
func rrCollection(tb testing.TB, profile string, scale gen.Scale, seed uint64, sets int64) (int, *diffusion.RRCollection) {
	tb.Helper()
	p, err := gen.ProfileByName(profile)
	if err != nil {
		tb.Fatal(err)
	}
	g := p.Generate(scale, seed)
	graph.AssignWeightedCascade(g)
	col := &diffusion.RRCollection{}
	if err := diffusion.ExtendCollection(context.Background(), g, diffusion.NewIC(), col, sets, seed+1, 2); err != nil {
		tb.Fatal(err)
	}
	return g.N(), col
}

// ladderCollection is the adversarial input of on-demand counts. Pickers
// 0..49 and contenders 50..249 share one pair set per (picker, contender);
// private singletons stagger the pickers' counts one apart, from 249 down,
// and put every contender at picker 1's count. Each pick lowers every
// contender by one, so the bucket greedy pops all 200 of them stale before
// every next picker: without the cap, each pick recounts 200 lists of
// about 240 postings, some 40 times the prefix's 61k members.
func ladderCollection() (int, *diffusion.RRCollection) {
	const pickers, contenders = 50, 200
	col := &diffusion.RRCollection{Off: []int64{0}}
	for p := uint32(0); p < pickers; p++ {
		for c := uint32(0); c < contenders; c++ {
			col.Append([]uint32{p, pickers + c})
		}
	}
	for p := 0; p < pickers; p++ {
		for i := 0; i < pickers-1-p; i++ {
			col.Append([]uint32{uint32(p)})
		}
	}
	for c := 0; c < contenders; c++ {
		for i := 0; i < contenders-2; i++ {
			col.Append([]uint32{uint32(pickers + c)})
		}
	}
	return pickers + contenders, col
}

// checkAgainstReference selects under c over the θ-prefix of idx's
// collection both ways and fails unless the results are deeply equal.
func checkAgainstReference(t *testing.T, label string, idx *Index, prefix *diffusion.RRCollection, c Constraints) {
	t.Helper()
	got, want := GreedyIndex(idx, prefix, c), refGreedyIndex(idx, prefix, c)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: on-demand %+v, eager reference %+v", label, got, want)
	}
}

// TestGreedyMatchesEagerReference: on-demand counts pick, tie-break and
// report exactly what the eager reference does, field for field, in every
// mode (cardinality, force/exclude, budget), at random θ ≤ Sets(), for
// every index build worker count — over uniform collections, real RR sets
// whose heavy-tailed overlaps make stale pops and ties common, and the
// ladder, where the work cap must engage.
func TestGreedyMatchesEagerReference(t *testing.T) {
	type input struct {
		name string
		n    int
		col  *diffusion.RRCollection
	}
	type mode struct {
		name string
		c    Constraints
	}
	r := rng.New(31)
	var inputs []input
	for i := 0; i < 8; i++ {
		n := 20 + r.Intn(600)
		inputs = append(inputs, input{fmt.Sprintf("uniform-%d", i), n,
			randomCollection(uint64(400+i), n, 1+r.Intn(9000), 1+r.Intn(12))})
	}
	for i, profile := range []string{"nethept", "epinions", "dblp"} {
		n, col := rrCollection(t, profile, gen.ScaleTiny, uint64(7+i), 12000)
		inputs = append(inputs, input{"rr-" + profile, n, col})
	}
	n, col := ladderCollection()
	inputs = append(inputs, input{"ladder", n, col})

	for _, in := range inputs {
		n := in.n
		costs := make([]float64, n)
		for i := range costs {
			costs[i] = 0.25 + 2*r.Float64()
		}
		ids := func(max int) []uint32 {
			out := make([]uint32, r.Intn(max+1))
			for i := range out {
				out[i] = uint32(r.Intn(n + 3)) // duplicates and out-of-range ids included
			}
			return out
		}
		// Forcing the greedy's own top picks, out of order, leaves the
		// lazy heap to start from many stale upper bounds.
		top := refGreedyIndex(NewIndex(n, in.col, 1), in.col, Constraints{K: 8}).Seeds
		forceTop := append([]uint32(nil), top...)
		r.Shuffle(len(forceTop), func(i, j int) { forceTop[i], forceTop[j] = forceTop[j], forceTop[i] })
		forceTop = append(forceTop[:1+r.Intn(len(forceTop))], ids(3)...)

		for _, workers := range []int{1, 2, 4} {
			idx := NewIndex(n, in.col, workers)
			for _, theta := range []int{in.col.Count(), r.Intn(in.col.Count() + 1)} {
				prefix := in.col.Prefix(theta)
				modes := []mode{
					{"cardinality", Constraints{K: 1 + r.Intn(60)}},
					{"force/exclude", Constraints{K: 1 + r.Intn(60), Force: ids(4), Exclude: ids(10)}},
					{"force-top", Constraints{K: 1 + r.Intn(60), Force: forceTop, Exclude: ids(3)}},
					{"budget", Constraints{K: 1 + r.Intn(60), Budget: 1 + 12*r.Float64(), Costs: costs, Force: ids(2)}},
				}
				if in.name == "rr-nethept" {
					modes = append(modes, mode{"cardinality k=600", Constraints{K: 600}})
				}
				for _, m := range modes {
					label := fmt.Sprintf("%s workers=%d θ=%d/%d %s", in.name, workers, theta, idx.Sets(), m.name)
					checkAgainstReference(t, label, idx, prefix, m.c)
				}
			}
		}
	}

	// The ladder drives recounts past the cap: the selection must switch
	// to eager decrements, having read at most the prefix's members plus
	// the one posting list that crossed the line.
	idx := NewIndex(n, col, 1)
	s := newSelection(idx, col, false)
	defer s.release()
	if got, want := s.greedy(Constraints{K: 50}), refGreedyIndex(idx, col, Constraints{K: 50}); !reflect.DeepEqual(got, want) {
		t.Fatalf("ladder: on-demand %+v, eager reference %+v", got, want)
	}
	if !s.eager {
		t.Fatalf("ladder: the work cap never engaged (recounts read %d postings of %d members)", s.recounted, col.Off[col.Count()])
	}
	var longest int64
	for v := 0; v < n; v++ {
		longest = max(longest, int64(len(idx.Posting(uint32(v)))))
	}
	if limit := col.Off[col.Count()] + longest; s.recounted > limit {
		t.Fatalf("ladder: recounts read %d postings before the switch, more than %d members plus one list of %d",
			s.recounted, col.Off[col.Count()], longest)
	}
}

// TestGreedyIndexConcurrent: selections sharing one kept index from
// several goroutines at once, each drawing its state from the pool, give
// the serial answers.
func TestGreedyIndexConcurrent(t *testing.T) {
	const n = 400
	col := randomCollection(41, n, 6000, 10)
	idx := NewIndex(n, col, 1)
	costs := make([]float64, n)
	for i := range costs {
		costs[i] = 0.5 + float64(i%7)/4
	}
	modes := []Constraints{
		{K: 30},
		{K: 20, Force: []uint32{5, 6}, Exclude: []uint32{1, 2, 3}},
		{K: 25, Budget: 12, Costs: costs},
	}
	var want []Result
	for i, c := range modes {
		want = append(want, GreedyIndex(idx, col.Prefix(1000*(i+4)), c))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + round) % len(modes)
				if got := GreedyIndex(idx, col.Prefix(1000*(i+4)), modes[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d round %d mode %d: %+v, serial %+v", g, round, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzGreedyIndexMatchesReference decodes a small selection input — up to
// 48 nodes and 300 sets of up to 6 members, so duplicate sets and ties
// are common — and requires GreedyIndex to match the eager reference.
func FuzzGreedyIndexMatchesReference(f *testing.F) {
	// Three nodes over {0,1} twice, {1} and {2}; θ = 4, k = 2. Picking 1
	// leaves 0 in the bucket of count 2 with nothing left to cover, so a
	// count read without recounting would pick it over 2.
	base := "\x02\x00\x04\x02\x00\x01\x80\x01\x01\x01\x02\x00\x04\x02"
	f.Add([]byte(base + "\x00"))
	// The same with force [1 1] and exclude [2 5] (5 is out of range).
	f.Add([]byte(base + "\x01\x02\x01\x01\x02\x02\x05"))
	// The same under budget 2 with costs 1, 2 and 0.5.
	f.Add([]byte(base + "\x02\x00\x07\x07\x0f\x03"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n, col, theta, c := decodeSelectionInput(data)
		idx := NewIndex(n, col, 1)
		checkAgainstReference(t, fmt.Sprintf("n=%d θ=%d/%d %+v", n, theta, col.Count(), c), idx, col.Prefix(theta), c)
	})
}

// decodeSelectionInput reads a selection input from data, reading zeros
// once it runs out: a node count in [1, 48], up to 300 sets of up to 6
// distinct members (a set byte with its top bit set repeats the previous
// set instead), θ ≤ the set count, a pick count in [0, n+1], and a mode
// with its force and exclude lists (ids up to n+3: duplicates and
// out-of-range ids included) or its budget and node costs.
func decodeSelectionInput(data []byte) (int, *diffusion.RRCollection, int, Constraints) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n := 1 + next()%48
	sets := (next()<<8 | next()) % 301
	col := &diffusion.RRCollection{Off: []int64{0}}
	var prev []uint32
	for i := 0; i < sets; i++ {
		b := next()
		if b&0x80 == 0 {
			prev = prev[:0]
			seen := make([]bool, n)
			for j := 0; j < b%7; j++ {
				if v := next() % n; !seen[v] {
					seen[v] = true
					prev = append(prev, uint32(v))
				}
			}
		}
		col.Append(prev)
	}
	theta := (next()<<8 | next()) % (sets + 1)
	c := Constraints{K: next() % (n + 2)}
	ids := func(max int) []uint32 {
		out := make([]uint32, next()%(max+1))
		for i := range out {
			out[i] = uint32(next() % (n + 4))
		}
		return out
	}
	switch next() % 3 {
	case 1:
		c.Force, c.Exclude = ids(6), ids(10)
	case 2:
		c.Force = ids(3)
		c.Budget = float64(1+next()%32) / 4
		c.Costs = make([]float64, n)
		for v := range c.Costs {
			c.Costs[v] = float64(1+next()%16) / 8
		}
	}
	return n, col, theta, c
}
