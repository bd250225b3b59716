package maxcover

import (
	"fmt"
	"slices"

	"repro/internal/diffusion"
)

// Patch returns the index of a changed collection, derived from x
// without re-indexing the sets that did not change. col is the
// collection x indexes, possibly with sets appended: its sets below
// x.Sets() are the ones x indexes, and those in [x.Sets(), col.Count())
// are new. replaced lists, ascending, the ids below x.Sets() whose
// members changed, and sets[j] is the new content of set replaced[j];
// col still holds the old content, which Patch reads to find the
// postings to drop. n is the node count of the result, at least x.N(),
// and every new member must lie below it. Sets have distinct members,
// as RR sets do. x is only read; the result shares no storage with it.
//
// The result equals NewIndex(n, c, w), byte for byte and for every w,
// where c is col with each replaced set's new content: a set keeps its
// id when replaced, so node v's new posting list is its old one minus
// the replaced ids whose old set held v, plus the replaced and appended
// ids whose new set holds v, in ascending order — exactly what the
// set-major fill writes. A node in both the old and the new content of
// a set keeps that posting, so it is no change. Nodes no change touches
// keep their lists, and each run of them is one copy; a touched node's
// list is merged from its old list and its changes, each found by
// galloping forward from the previous one. Like NewIndex, the arrays
// are allocated at their exact size, for keeping. The cost is
// O(n + Σ|R| of the changed sets) plus one sequential copy of the old
// postings: well under a rebuild's when few postings change, several
// times it when most do (DESIGN.md §10.2 has BenchmarkIndexPatch's
// shapes).
func (x *Index) Patch(n int, col *diffusion.RRCollection, replaced []int32, sets [][]uint32) *Index {
	n0, count := x.N(), col.Count()
	if n < n0 || count < x.sets || len(sets) != len(replaced) {
		panic(fmt.Sprintf("maxcover: Patch of a %d-node, %d-set index to %d nodes over %d sets with %d of %d new contents",
			n0, x.sets, n, count, len(sets), len(replaced)))
	}
	// off[v+1] starts as v's old list length and nets out its changes;
	// a prefix sum turns it into CSR offsets. at[v+1] counts v's changes,
	// then holds the slot of v's next one while they are filled in, which
	// leaves v's changes, ascending, at changes[at[v]:at[v+1]]. The
	// scratch is not pooled: it is garbage as soon as the patch returns,
	// rather than parked beside the two indexes the patch already holds.
	off := make([]int64, n+1)
	for v := 0; v < n0; v++ {
		off[v+1] = x.off[v+1] - x.off[v]
	}
	at := make([]int64, n+1)
	var changes []uint32
	// change records that the patch adds set id to node v's list (join)
	// or drops it: counted on the first visit, written on the second.
	change := func(v, id uint32, join, fill bool) {
		switch {
		case fill:
			changes[at[v+1]] = id
			at[v+1]++
		case join:
			at[v+1]++
			off[v+1]++
		default:
			at[v+1]++
			off[v+1]--
		}
	}
	// visit reports, set by set in ascending id order, each change. A
	// node in both the old and the new content of a replaced set keeps
	// that posting, so it is no change: mark[v] is j+1 once v is seen in
	// sets[j], and -(j+1) once it is seen among the old members too.
	// Only members of sets[j] are ever marked j+1, so marks left from
	// earlier sets or an earlier visit need no clearing.
	var mark []int32
	if len(replaced) > 0 {
		mark = make([]int32, n)
	}
	visit := func(fill bool) {
		for j, r := range replaced {
			in := int32(j + 1)
			for _, v := range sets[j] {
				mark[v] = in
			}
			for _, v := range col.Set(int(r)) {
				if mark[v] == in {
					mark[v] = -in
				} else {
					change(v, uint32(r), false, fill)
				}
			}
			for _, v := range sets[j] {
				if mark[v] == in {
					change(v, uint32(r), true, fill)
				}
			}
		}
		for s := x.sets; s < count; s++ {
			for _, v := range col.Set(s) {
				change(v, uint32(s), true, fill)
			}
		}
	}
	visit(false)
	var total int64
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
		total, at[v+1] = total+at[v+1], total
	}
	changes = make([]uint32, total)
	visit(true)

	ids := make([]uint32, off[n])
	run := 0 // first node of the pending run of untouched nodes
	copyRun := func(end int) {
		// Untouched lists keep their lengths, so the run's old postings
		// are one contiguous block; nodes from n0 on hold none.
		copy(ids[off[run]:], x.ids[x.off[min(run, n0)]:x.off[min(end, n0)]])
	}
	for v := 0; v < n; v++ {
		if at[v] == at[v+1] {
			continue
		}
		copyRun(v)
		run = v + 1
		var old []uint32
		if v < n0 {
			old = x.Posting(uint32(v))
		}
		// A changed id leaves v's list if the old list holds it, and
		// joins it otherwise. Once either list runs out, the rest of
		// the other is copied whole: past the old list, every change
		// is a join.
		w, p, chg := off[v], 0, changes[at[v]:at[v+1]]
		for ; len(chg) > 0 && p < len(old); chg = chg[1:] {
			id, q := chg[0], p
			if old[q] < id {
				q = gallop(old, q+1, id)
				w += int64(copy(ids[w:], old[p:q]))
			}
			if q < len(old) && old[q] == id {
				p = q + 1
			} else {
				ids[w] = id
				w++
				p = q
			}
		}
		w += int64(copy(ids[w:], old[p:]))
		if w += int64(copy(ids[w:], chg)); w != off[v+1] {
			panic(fmt.Sprintf("maxcover: Patch: node %d's changes do not match its posting list", v))
		}
	}
	copyRun(n)
	return &Index{sets: count, off: off, ids: ids}
}

// gallop returns the first index i ≥ lo with s[i] ≥ id, or len(s) when
// there is none. It probes lo, lo+1, lo+3, lo+7, … and binary-searches
// the last step, so a target d positions past lo costs O(log d).
func gallop(s []uint32, lo int, id uint32) int {
	hi, step := lo, 1
	for hi < len(s) && s[hi] < id {
		lo = hi + 1
		hi += step
		step <<= 1
	}
	i, _ := slices.BinarySearch(s[lo:min(hi, len(s))], id)
	return lo + i
}
