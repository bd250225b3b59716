package maxcover

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
)

// changed returns the collection a patch must index: col with sets[j] in
// place of set replaced[j].
func changed(col *diffusion.RRCollection, replaced []int32, sets [][]uint32) *diffusion.RRCollection {
	out := &diffusion.RRCollection{Off: []int64{0}}
	j := 0
	for i := 0; i < col.Count(); i++ {
		if j < len(replaced) && int(replaced[j]) == i {
			out.Append(sets[j])
			j++
		} else {
			out.Append(col.Set(i))
		}
	}
	return out
}

// checkPatch patches x (the index of col's first x.Sets() sets) and fails
// unless the result deeply equals a build of the changed collection over
// n nodes, and holds the same bytes.
func checkPatch(t *testing.T, label string, x *Index, n int, col *diffusion.RRCollection, replaced []int32, sets [][]uint32, workers int) {
	t.Helper()
	got, want := x.Patch(n, col, replaced, sets), NewIndex(n, changed(col, replaced, sets), workers)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: patched index differs from the rebuild", label)
	}
	if got.MemoryBytes() != want.MemoryBytes() {
		t.Fatalf("%s: patched index holds %d bytes, rebuild %d", label, got.MemoryBytes(), want.MemoryBytes())
	}
}

// randomMembers draws size distinct nodes below n.
func randomMembers(r *rng.Rand, n, size int) []uint32 {
	seen := make(map[uint32]bool, size)
	out := make([]uint32, 0, size)
	for len(out) < size && len(out) < n {
		if v := uint32(r.Intn(n)); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// TestPatchMatchesNewIndex: a patched index equals the rebuild of the
// changed collection, for every build worker count, whether no, some or
// all sets are replaced — by contents that keep some old members, and
// shrink, grow or empty — sets are appended with or without
// replacements, and the node count grows with new nodes in the replaced
// and appended sets. The collections are large enough that workers 2
// and 4 build in parallel.
func TestPatchMatchesNewIndex(t *testing.T) {
	const n0, sets0, maxSize = 2000, 6000, 8
	cases := []struct {
		name     string
		grow     int
		replace  float64 // share of the old sets replaced
		appended int
	}{
		{name: "none", replace: 0},
		{name: "some", replace: 0.1},
		{name: "all", replace: 1},
		{name: "append", appended: 700},
		{name: "append-some", replace: 0.1, appended: 700},
		{name: "grow-some", grow: 9, replace: 0.1},
		{name: "grow-only", grow: 9},
		{name: "grow-all-append", grow: 9, replace: 1, appended: 700},
	}
	for i, tc := range cases {
		r := rng.New(uint64(40 + i))
		n := n0 + tc.grow
		col := randomCollection(uint64(20+i), n0, sets0, maxSize)
		var replaced []int32
		var sets [][]uint32
		for s := 0; s < sets0; s++ {
			if tc.replace == 0 || (tc.replace < 1 && r.Float64() >= tc.replace) {
				continue
			}
			// Like a re-derived RR set, a replacement keeps some old
			// members and draws new ones, so it may shrink or grow; every
			// sixteenth one empties the set, and every fourth names a new
			// node when nodes grow.
			var m []uint32
			for _, v := range col.Set(s) {
				if r.Intn(2) == 0 {
					m = append(m, v)
				}
			}
			m = append(m, randomMembers(r, n, r.Intn(maxSize+1))...)
			if tc.grow > 0 && len(replaced)%4 == 0 {
				m = append(m, uint32(n0+r.Intn(tc.grow)))
			}
			if len(replaced)%16 == 0 {
				m = nil
			}
			replaced = append(replaced, int32(s))
			sets = append(sets, dedup(m))
		}
		for a := 0; a < tc.appended; a++ {
			col.Append(randomMembers(r, n, 1+r.Intn(maxSize)))
		}
		for _, workers := range []int{1, 2, 4} {
			x := NewIndex(n0, col.Prefix(sets0), workers)
			checkPatch(t, fmt.Sprintf("%s/workers=%d", tc.name, workers), x, n, col, replaced, sets, workers)
		}
	}
}

// dedup drops repeated members, keeping first occurrences in order.
func dedup(m []uint32) []uint32 {
	seen := make(map[uint32]bool, len(m))
	out := m[:0]
	for _, v := range m {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// FuzzIndexPatch decodes a small patch input — up to 48 nodes and 300
// sets of up to 6 distinct members, a replaced subset with new contents,
// appended sets and node growth — and requires the patch to equal the
// rebuild.
func FuzzIndexPatch(f *testing.F) {
	// Four nodes growing to six; sets {0,1}, {2}, {1,3}. Set 0 becomes
	// {4,1} and set 2 empties; {5,0} is appended.
	f.Add([]byte("\x03\x02\x00\x03\x02\x00\x01\x01\x02\x02\x01\x03\x01\x02\x04\x01\x00\x01\x00\x01\x02\x05\x00"))
	// The same without replacements: an append-only patch.
	f.Add([]byte("\x03\x02\x00\x03\x02\x00\x01\x01\x02\x02\x01\x03\x00\x00\x00\x01\x02\x05\x00"))
	// Every set replaced, no growth, nothing appended.
	f.Add([]byte("\x03\x00\x00\x03\x02\x00\x01\x01\x02\x02\x01\x03\x01\x01\x03\x01\x02\x01\x00\x01\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		n0, n, col, sets0, replaced, sets := decodePatchInput(data)
		checkPatch(t, fmt.Sprintf("n %d→%d, %d sets + %d, %d replaced", n0, n, sets0, col.Count()-sets0, len(replaced)),
			NewIndex(n0, col.Prefix(sets0), 1), n, col, replaced, sets, 1)
	})
}

// decodePatchInput reads a patch input from data, reading zeros once it
// runs out: an old node count n0 in [1, 48] and a new one n in [n0, 48];
// up to 300 old sets of up to 6 distinct members below n0; one byte per
// old set, odd when it is replaced, followed by the new content (members
// below n); and appended sets below n, at most 300 sets in all. It
// returns the collection of old and appended sets, the old set count,
// and the replaced ids with their new contents.
func decodePatchInput(data []byte) (n0, n int, col *diffusion.RRCollection, sets0 int, replaced []int32, sets [][]uint32) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	set := func(n int) []uint32 {
		var s []uint32
		seen := make([]bool, n)
		for j := next() % 7; j > 0; j-- {
			if v := next() % n; !seen[v] {
				seen[v] = true
				s = append(s, uint32(v))
			}
		}
		return s
	}
	n0 = 1 + next()%48
	n = n0 + next()%(49-n0)
	sets0 = (next()<<8 | next()) % 301
	col = &diffusion.RRCollection{Off: []int64{0}}
	for i := 0; i < sets0; i++ {
		col.Append(set(n0))
	}
	for i := 0; i < sets0; i++ {
		if next()%2 == 1 {
			replaced = append(replaced, int32(i))
			sets = append(sets, set(n))
		}
	}
	for a := next() % (301 - sets0); a > 0; a-- {
		col.Append(set(n))
	}
	return n0, n, col, sets0, replaced, sets
}

// BenchmarkIndexPatch compares rebuilding the cover index of a changed
// collection with patching the old one, on IC RR sets over the nethept
// small stand-in (240k sets; 40k under -short), in four shapes:
//
//   - repair: the sets holding the head of any of eight random edges (so
//     heads come in proportion to in-degree) are re-derived from their
//     own streams after those edges are deleted — a serve-live repair;
//   - grow: one node is added, and the sets whose uniform root draw
//     changes with the node count are re-derived on the grown graph
//     (the replay of evolve's rootUnstableSets) — the repair of an
//     add_nodes update, which replaces most sets;
//   - append: the last sixth of the sets is appended to the index of the
//     rest — an extension;
//   - append-most: the last five sixths are appended to the index of the
//     first sixth — an extension to several times the entry's θ.
//
// Each reports time and allocations per build or patch, and scratch-B:
// the bytes it allocates beyond the index it returns.
func BenchmarkIndexPatch(b *testing.B) {
	sets := int64(240000)
	if testing.Short() {
		sets = 40000
	}
	p, err := gen.ProfileByName("nethept")
	if err != nil {
		b.Fatal(err)
	}
	g := p.Generate(gen.ScaleSmall, 11)
	graph.AssignWeightedCascade(g)
	const seed = 12
	col := &diffusion.RRCollection{Off: []int64{0}}
	if err := diffusion.ExtendCollection(context.Background(), g, diffusion.NewIC(), col, sets, seed, 2); err != nil {
		b.Fatal(err)
	}
	x := NewIndex(g.N(), col, 1)
	n := g.N()

	// rederive re-derives the sets marked in redo on h from their own
	// streams.
	rederive := func(h *graph.Graph, redo []bool) (replaced []int32, newSets [][]uint32) {
		sampler := diffusion.AcquireSampler(h, diffusion.NewIC(), diffusion.SampleConfig{})
		defer diffusion.ReleaseSampler(sampler)
		var stream rng.Rand
		for s, hit := range redo {
			if hit {
				rng.New(seed).SplitInto(uint64(s), &stream)
				replaced = append(replaced, int32(s))
				newSets = append(newSets, sampler.Sample(&stream, nil))
			}
		}
		return replaced, newSets
	}

	edges := g.Edges()
	r := rng.New(13)
	touched := make([]bool, col.Count())
	for h := 0; h < 8; h++ {
		i := r.Intn(len(edges))
		for _, s := range x.Posting(edges[i].To) {
			touched[s] = true
		}
		edges[i] = edges[len(edges)-1]
		edges = edges[:len(edges)-1]
	}
	mutated, err := graph.FromEdges(n, edges)
	if err != nil {
		b.Fatal(err)
	}
	graph.AssignWeightedCascade(mutated)
	repReplaced, repSets := rederive(mutated, touched)

	grown, err := graph.FromEdges(n+1, g.Edges())
	if err != nil {
		b.Fatal(err)
	}
	graph.AssignWeightedCascade(grown)
	unstable := make([]bool, col.Count())
	var rOld, rNew rng.Rand
	for s := range unstable {
		rng.New(seed).SplitInto(uint64(s), &rOld)
		rNew = rOld
		unstable[s] = rOld.Intn(n) != rNew.Intn(n+1) || rOld != rNew
	}
	growReplaced, growSets := rederive(grown, unstable)

	for _, c := range []struct {
		name     string
		x        *Index
		n        int
		replaced []int32
		sets     [][]uint32
	}{
		{"repair", x, n, repReplaced, repSets},
		{"grow", x, n + 1, growReplaced, growSets},
		{"append", NewIndex(n, col.Prefix(col.Count()-col.Count()/6), 1), n, nil, nil},
		{"append-most", NewIndex(n, col.Prefix(col.Count()/6), 1), n, nil, nil},
	} {
		members := 0
		for j, s := range c.replaced {
			members += len(col.Set(int(s))) + len(c.sets[j])
		}
		result := changed(col, c.replaced, c.sets)
		b.Run(c.name+"/rebuild", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				NewIndex(c.n, result, 1)
			}
			b.ReportMetric(scratchBytes(func() *Index { return NewIndex(c.n, result, 1) }), "scratch-B")
		})
		b.Run(c.name+"/patch", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.x.Patch(c.n, col, c.replaced, c.sets)
			}
			b.ReportMetric(scratchBytes(func() *Index { return c.x.Patch(c.n, col, c.replaced, c.sets) }), "scratch-B")
			b.ReportMetric(float64(len(c.replaced)), "sets-replaced")
			b.ReportMetric(float64(col.Count()-c.x.Sets()), "sets-appended")
			b.ReportMetric(float64(members), "members-old+new")
		})
	}
}

// scratchBytes reports the heap bytes one call of build allocates beyond
// the index it returns.
func scratchBytes(build func() *Index) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	idx := build()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc - uint64(idx.MemoryBytes()))
}
