// Package evolve is the evolving-graph subsystem: a mutable, versioned
// layer over the static CSR graphs of internal/graph, plus an incremental
// maintainer that repairs sampled RR collections after graph mutations
// instead of throwing them away, patching each collection's cover index
// along with it (see repair.go).
//
// The static pipeline assumes a frozen graph; real social networks gain
// and lose edges continuously. evolve.Graph accepts batched mutations
// (edge insert/delete/reweight, node growth) against a canonical
// order-preserving edge list, and materializes immutable CSR snapshots on
// demand — samplers only ever see a snapshot, never a graph mid-mutation.
// Each applied batch bumps a version counter and appends to a bounded
// delta log, so a consumer holding state derived from version v can ask
// "what changed since v" (DeltaSince) and update incrementally; consumers
// too far behind the log's retention fall back to a cold rebuild.
//
// Ordering is the load-bearing invariant (DESIGN.md §8.2): deletions
// remove an edge without reordering the survivors and insertions append,
// so the in-edge list of any head whose edges were not touched is
// byte-identical — content and order — between consecutive snapshots.
// Reverse-reachable sampling consumes randomness per in-edge in list
// order, which is what makes untouched RR sets reusable bit-for-bit.
package evolve

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
)

// EdgeKey names a directed edge by its endpoints. With parallel edges the
// key is ambiguous; Delete removes the most recently inserted live
// occurrence and Reweight rewrites all of them.
type EdgeKey struct {
	From, To uint32
}

// Batch is one atomic group of mutations. Application order within a
// batch is: AddNodes, Deletes, Reweights, Inserts — so a batch may delete
// an existing edge and insert its replacement, and deletes/reweights
// always refer to pre-batch edges. Either the whole batch applies or none
// of it does.
type Batch struct {
	// AddNodes grows the node-id space by this many fresh isolated nodes.
	AddNodes int
	// Deletes removes one live occurrence of each key.
	Deletes []EdgeKey
	// Reweights sets the weight of every live occurrence of the edge.
	// Ignored weights-wise when the graph has a WeightPolicy (the policy
	// re-derives the head's weights), but still marks the head as touched.
	Reweights []graph.Edge
	// Inserts appends new edges. Under a WeightPolicy the given weight is
	// provisional (the policy overwrites the head's in-weights); without
	// one it is used as-is and must lie in [0, 1].
	Inserts []graph.Edge
}

// Empty reports whether the batch contains no mutations.
func (b *Batch) Empty() bool {
	return b.AddNodes == 0 && len(b.Deletes) == 0 && len(b.Reweights) == 0 && len(b.Inserts) == 0
}

// Mutations returns the number of individual mutations in the batch.
func (b *Batch) Mutations() int {
	return b.AddNodes + len(b.Deletes) + len(b.Reweights) + len(b.Inserts)
}

// Delta summarizes everything that changed between two versions, in the
// form the RR-set maintainer needs: the node-count transition and the set
// of heads (edge targets) whose in-edge list changed in any way.
type Delta struct {
	// NBefore and NAfter are the node counts at the two versions.
	NBefore, NAfter int
	// Heads are the distinct targets of every inserted, deleted, or
	// reweighted edge across the merged batches, sorted ascending.
	Heads []uint32
}

// Empty reports whether the delta implies no change visible to sampling.
func (d *Delta) Empty() bool {
	return d.NBefore == d.NAfter && len(d.Heads) == 0
}

// ErrUnknownEdge reports a delete or reweight of an edge with no live
// occurrence at its point in the batch.
var ErrUnknownEdge = errors.New("evolve: edge does not exist")

// Options tunes a Graph. The zero value is usable.
type Options struct {
	// CompactFraction triggers physical compaction of the canonical edge
	// list (dropping delete tombstones and rebuilding the in-edge index)
	// once dead entries exceed this fraction of live ones. Default 0.25.
	CompactFraction float64
	// MaxLogMutations bounds the total mutations retained in the delta
	// log; the oldest batches are dropped past it, and consumers behind
	// the drop see DeltaSince fail (cold rebuild). Default 1<<20.
	MaxLogMutations int
}

func (o Options) withDefaults() Options {
	if o.CompactFraction <= 0 {
		o.CompactFraction = 0.25
	}
	if o.MaxLogMutations <= 0 {
		o.MaxLogMutations = 1 << 20
	}
	return o
}

// logEntry records one applied batch for DeltaSince: the version it
// produced, the node-count transition, and the touched heads.
type logEntry struct {
	toVersion uint64
	nBefore   int
	nAfter    int
	heads     []uint32
	mutations int
}

// Graph is a mutable, versioned graph. All methods are safe for
// concurrent use; Snapshot returns immutable CSR views that remain valid
// (and unchanged) after further mutations.
type Graph struct {
	mu sync.Mutex

	n     int
	edges []graph.Edge // canonical list; dead entries are tombstoned
	dead  []bool
	inIdx map[uint32][]int32 // head -> live positions in edges, ascending
	live  int                // live edge count
	nDead int

	policy  WeightPolicy
	opts    Options
	version uint64
	log     []logEntry
	logMuts int

	snap *graph.Graph // cached snapshot for the current version, nil if stale
}

// New wraps a built (and, typically, weighted) static graph. The graph's
// forward-CSR edge order becomes the initial canonical order. The
// version-0 snapshot is rebuilt from that canonical order rather than
// aliasing g: g's own in-edge order reflects whatever order its builder
// supplied edges in, and reusing it would let untouched heads change
// in-edge order between version 0 and the first post-mutation snapshot —
// exactly the instability the canonical order exists to prevent.
// policy may be nil for explicit-weight graphs.
func New(g *graph.Graph, policy WeightPolicy, opts Options) *Graph {
	edges := g.Edges()
	e := &Graph{
		n:      g.N(),
		edges:  edges,
		dead:   make([]bool, len(edges)),
		inIdx:  make(map[uint32][]int32),
		live:   len(edges),
		policy: policy,
		opts:   opts.withDefaults(),
	}
	for i, ed := range edges {
		e.inIdx[ed.To] = append(e.inIdx[ed.To], int32(i))
	}
	return e
}

// Restore rebuilds a Graph from a previously captured canonical state:
// the node count, the live edges in canonical order (exactly as Edges
// returned them), and the version the state was captured at. It is the
// recovery half of the WAL/checkpoint protocol (internal/wal): the
// checkpoint stores topology only, and Restore re-derives every head's
// in-weights through the policy — policies make weights a pure function
// of (head, in-edge list), so the restored weights are bit-identical to
// the ones the pre-crash graph carried (DESIGN.md §8's warm-equals-cold
// argument). With a nil policy the given edge weights are used as-is
// and must lie in [0, 1].
//
// The delta log starts empty: consumers holding pre-crash derived state
// see DeltaSince fail and rebuild cold, which is the correct (and only
// safe) answer after a restart.
func Restore(n int, edges []graph.Edge, version uint64, policy WeightPolicy, opts Options) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("evolve: restore with negative n %d", n)
	}
	for _, ed := range edges {
		if int(ed.From) >= n || int(ed.To) >= n {
			return nil, fmt.Errorf("%w: restore edge %d -> %d with n=%d", graph.ErrNodeRange, ed.From, ed.To, n)
		}
		if policy == nil && !(ed.Weight >= 0 && ed.Weight <= 1) {
			return nil, fmt.Errorf("%w: restore edge %d -> %d weight %v", graph.ErrBadWeight, ed.From, ed.To, ed.Weight)
		}
	}
	own := append([]graph.Edge(nil), edges...)
	e := &Graph{
		n:       n,
		edges:   own,
		dead:    make([]bool, len(own)),
		inIdx:   make(map[uint32][]int32),
		live:    len(own),
		policy:  policy,
		opts:    opts.withDefaults(),
		version: version,
	}
	for i, ed := range own {
		e.inIdx[ed.To] = append(e.inIdx[ed.To], int32(i))
	}
	if policy != nil {
		heads := make(map[uint32]struct{}, len(e.inIdx))
		for h := range e.inIdx {
			heads[h] = struct{}{}
		}
		e.reweighHeads(sortedHeads(heads))
	}
	return e, nil
}

// Version returns the number of batches applied so far.
func (e *Graph) Version() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.version
}

// N returns the current node count.
func (e *Graph) N() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.n
}

// M returns the current live edge count.
func (e *Graph) M() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.live
}

// Edges returns a copy of the live edges in canonical order — the order
// Snapshot's CSR preserves per head.
func (e *Graph) Edges() []graph.Edge {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]graph.Edge, 0, e.live)
	for i, ed := range e.edges {
		if !e.dead[i] {
			out = append(out, ed)
		}
	}
	return out
}

// Snapshot materializes (or returns the cached) immutable CSR view of the
// current state, together with its version. The returned graph must not
// be mutated; it stays valid after further Apply calls.
func (e *Graph) Snapshot() (*graph.Graph, uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.snap == nil {
		liveEdges := make([]graph.Edge, 0, e.live)
		for i, ed := range e.edges {
			if !e.dead[i] {
				liveEdges = append(liveEdges, ed)
			}
		}
		g, err := graph.FromEdges(e.n, liveEdges)
		if err != nil {
			// Unreachable: Apply validates every endpoint and weight.
			panic(fmt.Sprintf("evolve: snapshot of validated state failed: %v", err))
		}
		e.snap = g
	}
	return e.snap, e.version
}

// SnapshotMemoryBytes reports the CSR footprint of the currently cached
// snapshot — 0 when no snapshot is materialized (none built yet, or
// invalidated by a mutation). It feeds the server's capacity ledger:
// snapshot bytes appear exactly while a servable CSR exists, so ledger
// totals track real retention rather than a high-water mark.
func (e *Graph) SnapshotMemoryBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snap.MemoryBytes()
}

// validateLocked checks a batch against the current state without
// mutating anything. Caller holds mu.
func (e *Graph) validateLocked(b Batch) error {
	if b.AddNodes < 0 {
		return fmt.Errorf("evolve: negative AddNodes %d", b.AddNodes)
	}
	// One batch may at most double the node count (or add one node to an
	// empty graph): the next snapshot allocates per node, so a single
	// update must not be able to ask for memory out of proportion to the
	// graph it mutates.
	if b.AddNodes > max(e.n, 1) {
		return fmt.Errorf("%w: adding %d nodes to %d more than doubles the graph", graph.ErrNodeRange, b.AddNodes, e.n)
	}
	// Node ids are uint32, so the count may reach 1<<32 and no further;
	// doubling alone stops short of that only while n <= 1<<31.
	// Comparing against the headroom also keeps e.n + AddNodes from
	// overflowing int.
	if int64(b.AddNodes) > 1<<32-int64(e.n) {
		return fmt.Errorf("%w: adding %d nodes to %d leaves the uint32 id space", graph.ErrNodeRange, b.AddNodes, e.n)
	}
	newN := e.n + b.AddNodes
	pendingDel := make(map[EdgeKey]int)
	for _, k := range b.Deletes {
		if int(k.From) >= e.n || int(k.To) >= e.n {
			return fmt.Errorf("%w: delete %d -> %d with n=%d", graph.ErrNodeRange, k.From, k.To, e.n)
		}
		if e.liveCount(k)-pendingDel[k] <= 0 {
			return fmt.Errorf("%w: delete %d -> %d", ErrUnknownEdge, k.From, k.To)
		}
		pendingDel[k]++
	}
	for _, ed := range b.Reweights {
		k := EdgeKey{ed.From, ed.To}
		if int(ed.From) >= e.n || int(ed.To) >= e.n {
			return fmt.Errorf("%w: reweight %d -> %d with n=%d", graph.ErrNodeRange, ed.From, ed.To, e.n)
		}
		if e.liveCount(k)-pendingDel[k] <= 0 {
			return fmt.Errorf("%w: reweight %d -> %d", ErrUnknownEdge, ed.From, ed.To)
		}
		if !(ed.Weight >= 0 && ed.Weight <= 1) {
			return fmt.Errorf("%w: reweight %d -> %d weight %v", graph.ErrBadWeight, ed.From, ed.To, ed.Weight)
		}
	}
	for _, ed := range b.Inserts {
		if int(ed.From) >= newN || int(ed.To) >= newN {
			return fmt.Errorf("%w: insert %d -> %d with n=%d", graph.ErrNodeRange, ed.From, ed.To, newN)
		}
		if !(ed.Weight >= 0 && ed.Weight <= 1) {
			return fmt.Errorf("%w: insert %d -> %d weight %v", graph.ErrBadWeight, ed.From, ed.To, ed.Weight)
		}
	}
	return nil
}

// Validate checks whether Apply would accept the batch, without
// applying it. The write-ahead log uses it to order durability before
// mutation: a batch is validated, logged, and only then applied, so a
// logged record always replays cleanly — Apply after a successful
// Validate cannot fail (the caller must not mutate the graph in
// between; the server holds its per-dataset lock across both).
func (e *Graph) Validate(b Batch) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.validateLocked(b)
}

// Apply validates and applies one batch atomically, returning the new
// version. On error the graph is unchanged.
func (e *Graph) Apply(b Batch) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()

	// Validate everything before mutating anything.
	if err := e.validateLocked(b); err != nil {
		return e.version, err
	}
	newN := e.n + b.AddNodes

	// Apply. Track touched heads for the delta log and the policy.
	nBefore := e.n
	e.n = newN
	headSet := make(map[uint32]struct{})
	for _, k := range b.Deletes {
		e.deleteLatest(k)
		headSet[k.To] = struct{}{}
	}
	for _, ed := range b.Reweights {
		for _, pos := range e.inIdx[ed.To] {
			if e.edges[pos].From == ed.From {
				e.edges[pos].Weight = ed.Weight
			}
		}
		headSet[ed.To] = struct{}{}
	}
	for _, ed := range b.Inserts {
		pos := int32(len(e.edges))
		e.edges = append(e.edges, ed)
		e.dead = append(e.dead, false)
		e.inIdx[ed.To] = append(e.inIdx[ed.To], pos)
		e.live++
		headSet[ed.To] = struct{}{}
	}

	heads := sortedHeads(headSet)
	if e.policy != nil {
		e.reweighHeads(heads)
	}

	e.version++
	entry := logEntry{
		toVersion: e.version,
		nBefore:   nBefore,
		nAfter:    e.n,
		heads:     heads,
		mutations: b.Mutations(),
	}
	e.log = append(e.log, entry)
	e.logMuts += entry.mutations
	for len(e.log) > 1 && e.logMuts > e.opts.MaxLogMutations {
		e.logMuts -= e.log[0].mutations
		e.log = e.log[1:]
	}

	e.snap = nil
	if float64(e.nDead) > e.opts.CompactFraction*float64(e.live) {
		e.compact()
	}
	return e.version, nil
}

// DeltaSince merges every batch applied after version v into one Delta.
// ok is false when v is ahead of the current version or the log no longer
// reaches back to v — the caller must then rebuild its derived state from
// a fresh snapshot.
func (e *Graph) DeltaSince(v uint64) (Delta, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.deltaBetweenLocked(v, e.version)
}

// DeltaBetween merges the batches that moved the graph from version from
// to version to. Consumers pinned to an older snapshot (a query that
// resolved its snapshot before a concurrent update landed) use it to
// repair derived state exactly to that snapshot's version rather than to
// whatever version the graph has reached since. ok is false when from >
// to, to is in the future, or the log no longer covers the range.
func (e *Graph) DeltaBetween(from, to uint64) (Delta, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.deltaBetweenLocked(from, to)
}

func (e *Graph) deltaBetweenLocked(from, to uint64) (Delta, bool) {
	if from > to || to > e.version {
		return Delta{}, false
	}
	if from == to {
		if n, ok := e.nodesAtLocked(from); ok {
			return Delta{NBefore: n, NAfter: n}, true
		}
		return Delta{}, false
	}
	// Log entries are contiguous: the earliest retained produced version
	// version-len(log)+1.
	earliest := e.version - uint64(len(e.log)) + 1
	if from+1 < earliest {
		return Delta{}, false
	}
	headSet := make(map[uint32]struct{})
	var d Delta
	first := true
	for _, entry := range e.log {
		if entry.toVersion <= from || entry.toVersion > to {
			continue
		}
		if first {
			d.NBefore = entry.nBefore
			first = false
		}
		d.NAfter = entry.nAfter
		for _, h := range entry.heads {
			headSet[h] = struct{}{}
		}
	}
	d.Heads = sortedHeads(headSet)
	return d, true
}

// nodesAtLocked returns the node count as of version v, if the log still
// records it. Caller holds mu.
func (e *Graph) nodesAtLocked(v uint64) (int, bool) {
	if v == e.version {
		return e.n, true
	}
	for _, entry := range e.log {
		if entry.toVersion == v {
			return entry.nAfter, true
		}
		if entry.toVersion == v+1 {
			return entry.nBefore, true
		}
	}
	return 0, false
}

// liveCount returns the number of live occurrences of k. Caller holds mu.
func (e *Graph) liveCount(k EdgeKey) int {
	c := 0
	for _, pos := range e.inIdx[k.To] {
		if e.edges[pos].From == k.From {
			c++
		}
	}
	return c
}

// deleteLatest tombstones the most recently inserted live occurrence of k
// and unlinks it from the in-edge index. Caller holds mu and has
// validated existence.
func (e *Graph) deleteLatest(k EdgeKey) {
	lst := e.inIdx[k.To]
	for i := len(lst) - 1; i >= 0; i-- {
		pos := lst[i]
		if e.edges[pos].From == k.From {
			e.dead[pos] = true
			e.inIdx[k.To] = append(lst[:i], lst[i+1:]...)
			e.live--
			e.nDead++
			return
		}
	}
	panic("evolve: deleteLatest of validated edge found nothing")
}

// reweighHeads re-derives the in-weights of each touched head through the
// policy. Caller holds mu.
func (e *Graph) reweighHeads(heads []uint32) {
	var src []uint32
	var w []float32
	for _, v := range heads {
		positions := e.inIdx[v]
		if len(positions) == 0 {
			continue
		}
		src = src[:0]
		w = w[:0]
		for _, pos := range positions {
			src = append(src, e.edges[pos].From)
			w = append(w, e.edges[pos].Weight)
		}
		e.policy.WeightIn(v, src, w)
		for i, pos := range positions {
			x := w[i]
			if !(x >= 0 && x <= 1) {
				// A policy returning an invalid weight is a programmer
				// error, same contract as graph.SetInWeights.
				panic(fmt.Sprintf("evolve: policy weight %v for head %d outside [0, 1]", x, v))
			}
			e.edges[pos].Weight = x
		}
	}
}

// compact physically removes tombstoned entries and rebuilds the index.
// Versions, the delta log, and the cached snapshot are unaffected — this
// is storage hygiene, not a logical change. Caller holds mu.
func (e *Graph) compact() {
	kept := make([]graph.Edge, 0, e.live)
	for i, ed := range e.edges {
		if !e.dead[i] {
			kept = append(kept, ed)
		}
	}
	e.edges = kept
	e.dead = make([]bool, len(kept))
	e.inIdx = make(map[uint32][]int32, len(e.inIdx))
	for i, ed := range kept {
		e.inIdx[ed.To] = append(e.inIdx[ed.To], int32(i))
	}
	e.nDead = 0
}

// sortedHeads flattens a head set into a sorted slice.
func sortedHeads(set map[uint32]struct{}) []uint32 {
	if len(set) == 0 {
		return nil
	}
	heads := make([]uint32, 0, len(set))
	for h := range set {
		heads = append(heads, h)
	}
	// Insertion sort: head sets are small relative to batch sizes and the
	// determinism of downstream iteration is what matters.
	for i := 1; i < len(heads); i++ {
		for j := i; j > 0 && heads[j] < heads[j-1]; j-- {
			heads[j], heads[j-1] = heads[j-1], heads[j]
		}
	}
	return heads
}
