package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/diffusion"
	"repro/internal/diskrr"
	"repro/internal/evolve"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/obs"
)

// rrStore is the RR-collection reuse layer. It holds one growing RR
// collection per (dataset, model, ε, sampling profile) key and hands
// exact-θ prefix views to queries through the tim.CollectionSource hook.
// The sampling profile is the compiled constraint hash (query.Compiled
// .Hash): audience-weight vectors and diffusion horizons key separate
// collections, while selection-only constraints — budgets, costs, forced
// or excluded seeds — deliberately share the unconstrained profile, so
// those queries keep hitting the same warm sketches. Because extensions
// are prefix-deterministic (diffusion.ExtendCollection keys set i by
// (entry seed, i)), a query sees bit-identical RR sets whether the store
// was cold, partially warm from a smaller-k query, or fully warm — reuse
// can only skip sampling, never change an answer.
//
// Collections are also version-aware: each entry remembers the graph
// version it was sampled at, and when a query arrives on a newer
// snapshot the entry is repaired in place (evolve.Repair re-derives only
// the sets the delta could have touched, bit-identical to a cold sample
// on the new snapshot) instead of being dropped. Only when the delta log
// no longer reaches back to the entry's version — or the model is not
// incrementally maintainable — does the entry reset cold.
//
// ε is part of the key not for statistical validity (any i.i.d. RR sets
// serve any ε) but to keep the per-key growth pattern matched to one θ
// schedule, so collections do not balloon past what their query mix
// needs. Because ε is client-supplied, the key space is unbounded; the
// store therefore caps the number of live collections and evicts the
// least recently used one — a query on an evicted key simply resamples,
// and determinism is unaffected (the entry seed depends only on the
// key).
//
// With a spill directory configured the store is two-tiered: eviction
// (by the LRU cap or the operator's memory budget) demotes the victim's
// sets to a spill file (diskrr.WriteSpill) instead of discarding them,
// and the next query on that key promotes the cold collection back into
// a fresh arena and prefix-extends it — bit-identical to never having
// been evicted. The resident→spilled→promoted state machine per key:
//
//   - resident: entry in entries; bytes in the (dataset, rr_collections)
//     RAM account.
//   - spilled: record in spilled; bytes in the (dataset, rr_spill) disk
//     account; the file header pins (version, profile hash, seed).
//   - promoted: a new entry claims the record at creation (pendingSpill)
//     and the first query reads it back under the entry lock; a header
//     mismatch or read failure drops the file and the entry stays cold —
//     a stale or foreign spill is never silently served. A promoted
//     collection behind the query's snapshot version then goes through
//     the ordinary repair path (or cold reset), exactly like a warm one.
//
// Each entry also owns the read-only cover index of its collection
// (maxcover.Index), one per (version, set count), shared with every query
// the way prefix views of the collection are: a warm query selects over
// (index, θ) instead of indexing θ sets itself, and a repair finds its
// affected sets from the index's posting lists. The entry replaces the
// index, never mutates it, whenever the collection changes, and derives
// the new one from the old: a repair returns the index it patched with
// the re-derived sets (evolve.RepairConfig), and an extension patches in
// the sets it appended (maxcover.(*Index).Patch). Only an entry without
// an index indexes every set: on its first query, and on the first after
// a cold reset or a promotion. Demotion drops the index, and the ledger
// charges it beside the arena.
//
// Spilled records have their own LRU order bounded by the disk budget;
// the spill tier is a volatile cache (this index dies with the process),
// so startup purges the directory and recovery serves from a cold
// resample.
type rrStore struct {
	mu       sync.Mutex
	entries  map[string]*rrEntry
	order    *list.List // front = most recently used key
	capacity int
	seed     uint64

	// Spill tier configuration (spillDir == "" disables the tier:
	// eviction then discards, the pre-spill behavior). ramBytes reports
	// the ledger's RAM-tier total for the memory-budget eviction trigger;
	// onPromote feeds each promotion's (bytes, ms) into the planner's
	// promotion-latency model.
	spillDir   string
	diskBudget int64
	memBudget  int64
	ramBytes   func() int64
	onPromote  func(key string, bytes int64, ms float64)

	// spilled maps keys to their cold on-disk records; spillOrder is the
	// demotion LRU (front = most recently demoted) the disk budget
	// drops from. Both guarded by mu. spillSeq makes spill file names
	// unique across a process lifetime.
	spilled    map[string]*spillRecord
	spillOrder *list.List
	spillSeq   uint64

	// ledger is the capacity ledger the store's resident bytes live in:
	// one account per dataset under the "rr_collections" component. The
	// old timserver_rr_memory_bytes gauge is now a func-backed view of
	// the ledger, so /metrics, /v1/stats, and /v1/capacity all read one
	// source of truth.
	ledger *obs.Ledger

	// Registry instruments: /v1/stats and /metrics read the same cells.
	// The instruments are atomic, so updating them never blocks behind an
	// entry mutex; only ledger deltas (and e.memory) stay under mu,
	// because eviction reads them there.
	setsSampled       *obs.Counter
	setsReused        *obs.Counter
	extensions        *obs.Counter
	partialExtensions *obs.Counter
	evictions         *obs.Counter
	repairs           *obs.Counter
	setsRepaired      *obs.Counter
	setsRepairReused  *obs.Counter
	repairColdResets  *obs.Counter
	repairTotalMs     *obs.Counter
	repairMaxMs       *obs.Gauge
	staleBypasses     *obs.Counter
	indexBuilds       *obs.Counter
	demotions         *obs.Counter
	promotions        *obs.Counter
	spillDrops        *obs.Counter
	spillFailures     *obs.Counter
}

// spillRecord is one cold collection in the spill tier: the file
// WriteSpill produced, its exact byte size, and the (dataset, "rr_spill")
// ledger account holding those bytes. elem is the record's slot in
// spillOrder while it sits in the spilled map; nil once an entry has
// claimed it for promotion.
type spillRecord struct {
	path  string
	bytes int64
	sets  int64
	elem  *list.Element
	disk  *obs.Account
}

// rrEntry is one cached collection. version is the graph version the
// collection's sets were (re)derived on; versioned records whether
// version has been initialized by a first query. idx is nil or the cover
// index of a prefix of col at version: a repair leaves the index it
// patched, or, cut short, the old index of the unchanged collection;
// an extension patches in the sets it appended, or, cut short by
// a deadline, leaves the shorter index for the next query to patch; a
// cold reset, a demotion and a promotion leave nil.
type rrEntry struct {
	mu        sync.Mutex
	col       *diffusion.RRCollection
	idx       *maxcover.Index
	seed      uint64
	version   uint64
	versioned bool
	// memory, elem, and evicted are guarded by the *store* mutex (memory
	// is read by eviction, which holds only the store mutex). An evicted
	// entry may still be held by an in-flight query; it finishes
	// normally but no longer contributes to the store's memory
	// accounting.
	memory  int64
	elem    *list.Element
	evicted bool
	// pendingSpill (also guarded by the store mutex) is the cold spill
	// record this entry claimed at creation; the first query promotes it
	// under the entry lock and clears it.
	pendingSpill *spillRecord
	// mem is the entry's ledger account — the (dataset, "rr_collections")
	// leaf; entries of one dataset share it, so deltas accumulate.
	mem *obs.Account
}

// rrStoreConfig configures newRRStore; the zero value of every field
// except Seed/Capacity disables the spill tier.
type rrStoreConfig struct {
	Seed     uint64
	Capacity int
	// SpillDir enables the spill tier: evicted collections demote to
	// files here instead of being discarded.
	SpillDir string
	// DiskBudget bounds the spill tier's on-disk bytes (0 = unbudgeted);
	// the oldest spilled record is dropped beyond it.
	DiskBudget int64
	// MemBudget, with RAMBytes, adds a second eviction trigger: while
	// the RAM-tier ledger total exceeds MemBudget, the LRU collection is
	// evicted (and demoted) even below the Capacity cap.
	MemBudget int64
	RAMBytes  func() int64
	// OnPromote observes each completed promotion (key, file bytes,
	// elapsed ms) — the planner's promotion-latency model.
	OnPromote func(key string, bytes int64, ms float64)
}

func newRRStore(cfg rrStoreConfig, reg *obs.Registry, ledger *obs.Ledger) *rrStore {
	capacity := cfg.Capacity
	if capacity < 1 {
		capacity = 1
	}
	reg.GaugeFunc("timserver_rr_memory_bytes", "Resident bytes across live RR collections.",
		func() float64 { return float64(ledger.SumComponent("rr_collections")) })
	reg.GaugeFunc("timserver_rr_spill_bytes", "On-disk bytes across spilled RR collections.",
		func() float64 { return float64(ledger.SumComponent("rr_spill")) })
	s := &rrStore{
		entries:  make(map[string]*rrEntry),
		order:    list.New(),
		capacity: capacity,
		seed:     cfg.Seed,
		ledger:   ledger,

		spillDir:   cfg.SpillDir,
		diskBudget: cfg.DiskBudget,
		memBudget:  cfg.MemBudget,
		ramBytes:   cfg.RAMBytes,
		onPromote:  cfg.OnPromote,
		spilled:    make(map[string]*spillRecord),
		spillOrder: list.New(),

		setsSampled:       reg.Counter("timserver_rr_sets_sampled_total", "RR sets sampled fresh (cache misses and extensions)."),
		setsReused:        reg.Counter("timserver_rr_sets_reused_total", "RR sets served from warm collections without resampling."),
		extensions:        reg.Counter("timserver_rr_extensions_total", "Collection extensions (queries that sampled past the warm prefix)."),
		partialExtensions: reg.Counter("timserver_rr_partial_extensions_total", "Extensions cut short by a deadline that still kept their prefix."),
		evictions:         reg.Counter("timserver_rr_evictions_total", "RR collections evicted by the LRU cap."),
		repairs:           reg.Counter("timserver_rr_repairs_total", "Update-triggered incremental repairs of warm collections."),
		setsRepaired:      reg.Counter("timserver_rr_sets_repaired_total", "RR sets re-derived by incremental repairs."),
		setsRepairReused:  reg.Counter("timserver_rr_sets_repair_reused_total", "RR sets kept as-is by incremental repairs."),
		repairColdResets:  reg.Counter("timserver_rr_repair_cold_resets_total", "Collections restarted cold (delta log exhausted or unsupported model)."),
		repairTotalMs:     reg.Counter("timserver_rr_repair_ms_total", "Total milliseconds spent in incremental repairs."),
		repairMaxMs:       reg.Gauge("timserver_rr_repair_max_ms", "Slowest single incremental repair in milliseconds."),
		staleBypasses:     reg.Counter("timserver_rr_stale_bypasses_total", "Queries served from a private cold sample after racing behind the shared collection."),
		indexBuilds:       reg.Counter("timserver_rr_index_builds_total", "Cover index states of shared RR collections, built from every set or patched through a repair or an extension (one per collection state)."),
		demotions:         reg.Counter("timserver_rr_demotions_total", "Evicted RR collections demoted to the spill tier."),
		promotions:        reg.Counter("timserver_rr_promotions_total", "Spilled RR collections promoted back into memory."),
		spillDrops:        reg.Counter("timserver_rr_spill_drops_total", "Spilled collections dropped (disk budget, staleness mismatch, or corrupt file)."),
		spillFailures:     reg.Counter("timserver_rr_spill_failures_total", "Demotions that failed to write their spill file (the eviction became a plain drop)."),
	}
	reg.GaugeFunc("timserver_rr_spilled_collections", "Cold RR collections currently held by the spill tier.",
		func() float64 { return float64(s.spilledCount()) })
	return s
}

// spilledCount reports the cold collections the tier holds: spilled
// records plus records claimed by a resident entry but not yet promoted.
func (s *rrStore) spilledCount() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := int64(len(s.spilled))
	for _, e := range s.entries {
		if e.pendingSpill != nil {
			n++
		}
	}
	return n
}

// entry returns (creating if needed) the collection for key, evicting
// the least recently used entries when the cap — or the operator's
// memory budget — is exceeded. The entry's sampling seed depends only
// on (store seed, key), so two servers with the same base seed answer
// identically — as does one server before and after an eviction.
// created reports whether this call built the entry.
//
// Demotion runs here, and only here, after the store mutex is
// released: it must take each victim's entry mutex (an in-flight query
// may still be extending the victim), and entry() is the one store
// path that holds no entry mutex of its own — running demotion from
// NodeSelectionSets' accounting block would deadlock two queries
// demoting each other's entries.
func (s *rrStore) entry(ctx context.Context, key string) (_ *rrEntry, created bool) {
	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.order.MoveToFront(e.elem)
		s.mu.Unlock()
		return e, false
	}
	victims := s.evictLocked()
	e := &rrEntry{
		col:  &diffusion.RRCollection{Off: []int64{0}},
		seed: s.seed ^ fnv64(key),
		mem:  s.ledger.Account(rrKeyDataset(key), "rr_collections"),
	}
	if rec, ok := s.spilled[key]; ok {
		// Claim the cold record under the store mutex: this entry is now
		// its only owner, so exactly one query will promote it.
		delete(s.spilled, key)
		s.spillOrder.Remove(rec.elem)
		rec.elem = nil
		e.pendingSpill = rec
	}
	e.elem = s.order.PushFront(key)
	s.entries[key] = e
	s.mu.Unlock()
	for _, v := range victims {
		s.demote(ctx, v.key, v.entry)
	}
	return e, true
}

// rrVictim is one evicted entry awaiting demotion.
type rrVictim struct {
	key   string
	entry *rrEntry
}

// evictLocked pops LRU entries while the capacity cap — or, with a
// memory budget configured, the RAM-tier ledger total — is exceeded.
// Victims are marked evicted and their RAM bytes released immediately
// (an in-flight query on a victim finishes normally but no longer
// contributes to the accounting); the caller demotes them after
// releasing the store mutex. Caller holds s.mu.
func (s *rrStore) evictLocked() []rrVictim {
	var victims []rrVictim
	pop := func() bool {
		oldest := s.order.Back()
		if oldest == nil {
			return false
		}
		victimKey := oldest.Value.(string)
		victim := s.entries[victimKey]
		s.order.Remove(oldest)
		delete(s.entries, victimKey)
		victim.evicted = true
		victim.mem.Add(-victim.memory)
		s.evictions.Inc()
		victims = append(victims, rrVictim{key: victimKey, entry: victim})
		return true
	}
	for len(s.entries) >= s.capacity {
		if !pop() {
			break
		}
	}
	if s.memBudget > 0 && s.ramBytes != nil {
		// The RAM-tier total (not ledger.Total(), which includes the
		// spill tier's own disk bytes — demoting could never shrink
		// that below budget).
		for len(s.entries) > 0 && s.ramBytes() > s.memBudget {
			if !pop() {
				break
			}
		}
	}
	return victims
}

// demote moves one evicted entry's collection into the spill tier (or
// discards it when the tier is off, the collection is empty, or the
// spill write fails — exactly the pre-spill eviction behavior). It
// waits on the victim's entry mutex, so a query still extending the
// victim finishes first and the spill captures the flushed prefix.
func (s *rrStore) demote(ctx context.Context, key string, v *rrEntry) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.idx = nil // the spill holds only the collection; a promoted entry rebuilds its own
	s.mu.Lock()
	rec := v.pendingSpill
	v.pendingSpill = nil
	s.mu.Unlock()
	if rec != nil {
		// Evicted again before any query promoted it: the on-disk file
		// is still exactly this collection — relink the record instead
		// of rewriting the file (its disk bytes never left the ledger).
		s.admitSpill(key, rec)
		return
	}
	if s.spillDir == "" || v.col.Count() == 0 || !v.versioned {
		return
	}
	span := obs.StartSpan(ctx, "rr.demote").Attr("sets", int64(v.col.Count()))
	hdr := diskrr.SpillHeader{Version: v.version, ProfileHash: rrKeyProfile(key), Seed: v.seed}
	s.mu.Lock()
	s.spillSeq++
	path := filepath.Join(s.spillDir, fmt.Sprintf("rrspill-%016x-%d.bin", fnv64(key), s.spillSeq))
	s.mu.Unlock()
	bytes, err := diskrr.WriteSpill(path, hdr, v.col)
	if err != nil {
		// WriteSpill left no debris (its contract); the eviction becomes
		// a plain drop and the next query on the key resamples cold.
		s.spillFailures.Inc()
		span.Attr("failed", true).End()
		return
	}
	rec = &spillRecord{
		path:  path,
		bytes: bytes,
		sets:  int64(v.col.Count()),
		disk:  s.ledger.Account(rrKeyDataset(key), "rr_spill"),
	}
	rec.disk.Add(bytes)
	s.demotions.Inc()
	s.admitSpill(key, rec)
	span.Attr("bytes", bytes).End()
}

// admitSpill links a (already charged) record into the spilled map and
// enforces the disk budget by dropping the oldest records — possibly
// the new one itself, when it alone exceeds the budget.
func (s *rrStore) admitSpill(key string, rec *spillRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.spilled[key]; ok {
		// Unreachable by construction (an entry claims the record at
		// creation), but never leak a file: the newer demotion wins.
		s.dropSpillLocked(key, old)
	}
	rec.elem = s.spillOrder.PushFront(key)
	s.spilled[key] = rec
	if s.diskBudget > 0 {
		for s.spillOrder.Len() > 0 && s.ledger.SumComponent("rr_spill") > s.diskBudget {
			oldest := s.spillOrder.Back()
			oldKey := oldest.Value.(string)
			s.dropSpillLocked(oldKey, s.spilled[oldKey])
		}
	}
}

// dropSpillLocked removes one spilled record: file deleted, disk bytes
// released, drop counted. Caller holds s.mu.
func (s *rrStore) dropSpillLocked(key string, rec *spillRecord) {
	delete(s.spilled, key)
	if rec.elem != nil {
		s.spillOrder.Remove(rec.elem)
		rec.elem = nil
	}
	rec.disk.Add(-rec.bytes)
	os.Remove(rec.path)
	s.spillDrops.Inc()
}

// promote reads the entry's claimed spill record back into memory — a
// no-op when none is pending. Called with e.mu held, before the
// version checks: promotion restores (col, version) exactly as they were
// demoted, and the ordinary repair path then brings a behind-version
// collection to the query's snapshot (or cold-resets), just as if the
// entry had stayed warm. n is the node count of the query's snapshot;
// node counts only grow, so every id of a file demoted at an older
// version is below it. The spill is dropped unserved on a read failure
// (including an id ≥ n) or a header mismatch with the entry's identity —
// the query then resamples cold, bit-identical by the keyed seed.
func (s *rrStore) promote(ctx context.Context, key string, e *rrEntry, n int) {
	s.mu.Lock()
	rec := e.pendingSpill
	e.pendingSpill = nil
	s.mu.Unlock()
	if rec == nil {
		return
	}
	span := obs.StartSpan(ctx, "rr.promote").Attr("bytes", rec.bytes).Attr("sets", rec.sets)
	start := time.Now()
	hdr, col, err := diskrr.ReadSpill(rec.path, n)
	os.Remove(rec.path)
	rec.disk.Add(-rec.bytes)
	if err != nil || hdr.Seed != e.seed || hdr.ProfileHash != rrKeyProfile(key) {
		s.spillDrops.Inc()
		span.Attr("dropped", true).End()
		return
	}
	e.col, e.idx = col, nil
	e.version, e.versioned = hdr.Version, true
	s.promotions.Inc()
	span.End()
	if s.onPromote != nil {
		s.onPromote(key, rec.bytes, msSince(start))
	}
}

// spilledBytes reports the on-disk size of the cold collection a query
// on key would have to promote first (0 when the key is resident-warm
// or absent) — the planner's promotion-latency penalty input.
func (s *rrStore) spilledBytes(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.spilled[key]; ok {
		return rec.bytes
	}
	if e, ok := s.entries[key]; ok && e.pendingSpill != nil {
		return e.pendingSpill.bytes
	}
	return 0
}

// rrKeyFor builds the reuse-layer key for (dataset, model, ε, compiled
// sampling-profile hash). The key deliberately excludes k, seed, and
// algorithm — any i.i.d. RR sets serve any of them — and the graph
// version: one collection follows the dataset across versions. The
// unconstrained profile (hash 0) omits its suffix, so pre-profile keys
// are unchanged. doMaximize and the tier planner's promotion penalty
// must agree on this shape, which is why it is one function.
func rrKeyFor(dataset, modelName string, eps float64, profileHash uint64) string {
	key := fmt.Sprintf("%s|%s|eps=%g", dataset, modelName, eps)
	if profileHash != 0 {
		key += fmt.Sprintf("|profile=%x", profileHash)
	}
	return key
}

// rrKeyDataset extracts the dataset name from a reuse-layer key
// ("dataset|model|eps=..." — see rrKeyFor), the ledger dimension rr
// bytes are attributed along.
func rrKeyDataset(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		return key[:i]
	}
	return key
}

// rrKeyCost extracts the "dataset|model" prefix of a reuse-layer key —
// the granularity the tiered planner's cost models are keyed on.
func rrKeyCost(key string) string {
	if i := strings.IndexByte(key, '|'); i >= 0 {
		if j := strings.IndexByte(key[i+1:], '|'); j >= 0 {
			return key[:i+1+j]
		}
	}
	return key
}

// rrKeyProfile extracts the compiled sampling-profile hash from a
// reuse-layer key ("...|profile=<hex>" — see rrKeyFor); 0 for the
// unconstrained profile, which omits the suffix.
func rrKeyProfile(key string) uint64 {
	const marker = "|profile="
	i := strings.LastIndex(key, marker)
	if i < 0 {
		return 0
	}
	h, err := strconv.ParseUint(key[i+len(marker):], 16, 64)
	if err != nil {
		return 0
	}
	return h
}

// faultRREvictMidExtend is consulted after a query's extension flushes
// but before its ledger accounting runs. Tests use it as a
// synchronization hook to force an eviction into exactly that window —
// the race the `!e.evicted` guard in charge exists for.
const faultRREvictMidExtend = "server/rr-evict-mid-extend"

// fnv64 is the FNV-1a hash, used to derive per-key sampling seeds.
func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// source binds the store to one key as a tim.CollectionSource for one
// query against one graph snapshot. It also records the per-query
// reuse/repair split so handlers can report it.
type rrSource struct {
	store *rrStore
	key   string
	evg   *evolve.Graph
	// snapVersion is the version of the snapshot the handler passes into
	// tim.MaximizeContext — the graph NodeSelectionSets will receive.
	snapVersion uint64
	// cfg is the sampling scenario of the query. The key embeds the
	// compiled profile hash, so every query landing on this entry samples
	// (and repairs) under an equivalent config — that is what keeps the
	// entry's sets interchangeable and the CollectionSource contract met
	// for constrained queries.
	cfg diffusion.SampleConfig

	// Filled by NodeSelectionSets for the handler to read back. A source
	// is used for a single Maximize call, so no locking is needed.
	reused   int64
	sampled  int64
	repaired int64
	// memory is the entry's footprint after this query, for the
	// planner's byte model (0 on the bypass path, which retains
	// nothing).
	memory int64
	// created reports that this query built the entry (first query on a
	// fresh profile key); handlers use it to count weighted collections.
	created bool
}

func (s *rrStore) source(key string, evg *evolve.Graph, snapVersion uint64, cfg diffusion.SampleConfig) *rrSource {
	return &rrSource{store: s, key: key, evg: evg, snapVersion: snapVersion, cfg: cfg}
}

// NodeSelectionSets implements tim.CollectionSource: bring the cached
// collection to exactly the query's snapshot version (repairing
// incrementally when the delta log allows, resetting cold otherwise),
// extend it to θ sets if needed, and return the θ-prefix view with the
// entry's cover index, built first if the collection changed since the
// last one.
func (r *rrSource) NodeSelectionSets(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, *maxcover.Index, error) {
	span := obs.StartSpan(ctx, "rr.store").Attr("theta", theta).Attr("workers", int64(workers))
	defer func() {
		span.Attr("reused", r.reused).Attr("sampled", r.sampled).Attr("repaired", r.repaired).End()
	}()
	e, created := r.store.entry(ctx, r.key)
	r.created = created
	e.mu.Lock()
	defer e.mu.Unlock()
	// Promote the entry's claimed spill record (if any) before the
	// version checks: a promoted collection behind the snapshot then
	// repairs or cold-resets through the ordinary paths below, exactly
	// like a warm entry would.
	r.store.promote(ctx, r.key, e, g.N())

	if e.versioned && e.version > r.snapVersion {
		// This query resolved its snapshot before a concurrent update
		// landed, and another query has since moved the shared entry
		// past it. Serve the stale snapshot from a private cold sample
		// — the same bytes a cold server at that version would draw —
		// and leave the newer entry alone.
		span.Attr("stale_bypass", true)
		col, err := r.sampleBypass(ctx, g, model, theta, workers)
		return col, nil, err
	}

	var repairStats evolve.RepairStats
	var repairMs float64
	didRepair, coldReset := false, false
	switch {
	case !e.versioned:
		e.version, e.versioned = r.snapVersion, true
	case e.version != r.snapVersion:
		start := time.Now()
		delta, ok := r.evg.DeltaBetween(e.version, r.snapVersion)
		if ok && e.col.Count() > 0 {
			// The pre-repair index locates the affected sets. Its node
			// count may predate the delta's growth; a head beyond it is
			// in no set, which the repair accounts for. The entry hands
			// the repair its only reference, so once the repair has
			// patched it nothing keeps the old index alive while the
			// new arena is allocated (evolve.RepairConfig); a failed
			// repair hands it back.
			r.ensureIndex(ctx, e, g.N(), workers)
			idx := e.idx
			e.idx = nil
			newCol, newIdx, st, err := evolve.RepairConfig(ctx, g, model, r.cfg, e.col, idx, delta, e.seed, workers)
			switch {
			case err == nil:
				e.col, e.idx = newCol, newIdx
				r.store.indexBuilds.Inc()
				repairStats = st
				didRepair = true
			case errors.Is(err, evolve.ErrUnsupportedModel):
				coldReset = true
			default:
				// Context cancellation and the like, which stop the
				// repair before its patch: the collection is unchanged
				// and the index handed back still describes it. Keep
				// it, charged, so the next query patches it instead of
				// indexing every set again.
				e.idx = newIdx
				r.store.charge(e, e.col.MemoryBytes()+e.idx.MemoryBytes())
				return nil, nil, err
			}
		} else if !ok {
			// The delta log no longer reaches back to the entry's
			// version: repair-instead-of-drop is off the table.
			coldReset = e.col.Count() > 0
		}
		if !didRepair {
			e.idx = nil
		}
		if coldReset {
			e.col = &diffusion.RRCollection{Off: []int64{0}}
		}
		e.version = r.snapVersion
		repairMs = float64(time.Since(start).Microseconds()) / 1000
		r.repaired = repairStats.Repaired
	}

	have := int64(e.col.Count())
	var extErr error
	if have < theta {
		// Partial-keep extension: if the query's deadline fires
		// mid-extension, the flushed prefix stays in the shared entry
		// (prefix determinism makes it exactly what the next query would
		// re-derive), so deadline-bounded budgeted traffic ratchets the
		// collection toward θ instead of sampling in vain.
		extErr = diffusion.ExtendCollectionConfigPartial(ctx, g, model, r.cfg, e.col, theta, e.seed, workers)
		r.reused = have
		r.sampled = int64(e.col.Count()) - have
	} else {
		r.reused = theta
	}
	if extErr == nil {
		r.ensureIndex(ctx, e, g.N(), workers)
	}
	memory := e.col.MemoryBytes() + e.idx.MemoryBytes()
	r.memory = memory
	if err := fault.Hit(faultRREvictMidExtend); err != nil {
		return nil, nil, err
	}

	r.store.setsReused.Add(float64(r.reused))
	r.store.setsSampled.Add(float64(r.sampled))
	if r.sampled > 0 {
		r.store.extensions.Inc()
	}
	if extErr != nil && r.sampled > 0 {
		r.store.partialExtensions.Inc()
	}
	if didRepair {
		r.store.repairs.Inc()
		r.store.setsRepaired.Add(float64(repairStats.Repaired))
		r.store.setsRepairReused.Add(float64(repairStats.Reused))
		r.store.repairTotalMs.Add(repairMs)
		r.store.repairMaxMs.SetMax(repairMs)
	}
	if coldReset {
		span.Attr("cold_reset", true)
		r.store.repairColdResets.Inc()
	}
	r.store.charge(e, memory)

	if extErr != nil {
		return nil, nil, extErr
	}
	return e.col.Prefix(int(theta)), e.idx, nil
}

// charge sets the ledger's charge for e to memory, the bytes of its
// collection and index. An evicted entry's bytes already left the
// ledger, so only e.memory moves. Caller holds e.mu.
func (s *rrStore) charge(e *rrEntry, memory int64) {
	s.mu.Lock()
	if !e.evicted {
		e.mem.Add(memory - e.memory)
	}
	e.memory = memory // under store.mu: eviction reads it there
	s.mu.Unlock()
}

// ensureIndex makes e.idx the cover index of exactly e.col: it patches
// the sets an extension appended into the entry's index, and builds one
// only when the entry has none (its first query, a cold reset, a
// promotion). Either way the index is allocated for keeping, never
// copied out of the selection scratch pools. Caller holds e.mu.
func (r *rrSource) ensureIndex(ctx context.Context, e *rrEntry, n, workers int) {
	if e.idx != nil && e.idx.Sets() == e.col.Count() {
		return
	}
	span := obs.StartSpan(ctx, "rr.index").Attr("sets", int64(e.col.Count()))
	if e.idx == nil {
		e.idx = maxcover.NewIndex(n, e.col, workers)
	} else {
		span.Attr("patched", true).Attr("replaced", int64(0)).Attr("appended", int64(e.col.Count()-e.idx.Sets()))
		e.idx = e.idx.Patch(n, e.col, nil, nil)
	}
	r.store.indexBuilds.Inc()
	span.Attr("bytes", e.idx.MemoryBytes()).End()
}

// sampleBypass serves one query from a private collection sampled cold
// with the entry's keyed seed, without touching the shared entry. Used
// only on the rare race where the shared collection has already advanced
// past the query's snapshot; determinism holds because cold sampling at
// the snapshot version with the entry seed is exactly what a cold server
// at that version would do.
func (r *rrSource) sampleBypass(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, error) {
	seed := r.store.seed ^ fnv64(r.key)
	col := &diffusion.RRCollection{Off: []int64{0}}
	if err := diffusion.ExtendCollectionConfig(ctx, g, model, r.cfg, col, theta, seed, workers); err != nil {
		return nil, err
	}
	r.sampled = theta
	r.store.setsSampled.Add(float64(theta))
	r.store.staleBypasses.Inc()
	return col, nil
}

// rrStoreStats is the /v1/stats snapshot of the reuse layer.
type rrStoreStats struct {
	Collections int64 `json:"collections"`
	Capacity    int   `json:"capacity"`
	SetsSampled int64 `json:"sets_sampled"`
	SetsReused  int64 `json:"sets_reused"`
	Extensions  int64 `json:"extensions"`
	// PartialExtensions counts extensions cut short by a deadline that
	// still flushed a kept prefix into the shared collection (the budget
	// ratchet: the next query on the key resumes from that prefix).
	PartialExtensions int64 `json:"partial_extensions"`
	Evictions         int64 `json:"evictions"`
	MemoryBytes       int64 `json:"memory_bytes"`
	// Repairs counts update-triggered incremental repairs of warm
	// collections; SetsRepaired / SetsRepairReused split their sets into
	// re-derived and kept. RepairColdResets counts collections that had
	// to restart cold (delta log exhausted or unsupported model).
	Repairs          int64   `json:"repairs"`
	SetsRepaired     int64   `json:"sets_repaired"`
	SetsRepairReused int64   `json:"sets_repair_reused"`
	RepairColdResets int64   `json:"repair_cold_resets"`
	RepairTotalMs    float64 `json:"repair_total_ms"`
	RepairMaxMs      float64 `json:"repair_max_ms"`
	// StaleBypasses counts queries served from a private cold sample
	// because their snapshot raced behind the shared collection.
	StaleBypasses int64 `json:"stale_bypasses"`
	// Spill tier: Demotions/Promotions count collections moved between
	// the RAM and disk tiers; SpillDrops counts spilled collections
	// discarded (disk budget, staleness mismatch, corrupt file);
	// SpillFailures counts demotions whose spill write failed (the
	// eviction became a plain drop). SpilledCollections/SpillBytes are
	// the tier's current holdings.
	Demotions          int64 `json:"demotions"`
	Promotions         int64 `json:"promotions"`
	SpillDrops         int64 `json:"spill_drops"`
	SpillFailures      int64 `json:"spill_failures"`
	SpilledCollections int64 `json:"spilled_collections"`
	SpillBytes         int64 `json:"spill_bytes"`
}

// memoryTotal reports the store's resident bytes from the ledger (the
// sum of every dataset's rr_collections account).
func (s *rrStore) memoryTotal() int64 {
	return s.ledger.SumComponent("rr_collections")
}

func (s *rrStore) stats() rrStoreStats {
	s.mu.Lock()
	collections := int64(len(s.entries))
	s.mu.Unlock()
	return rrStoreStats{
		Collections:        collections,
		Capacity:           s.capacity,
		SetsSampled:        s.setsSampled.Int(),
		SetsReused:         s.setsReused.Int(),
		Extensions:         s.extensions.Int(),
		PartialExtensions:  s.partialExtensions.Int(),
		Evictions:          s.evictions.Int(),
		MemoryBytes:        s.memoryTotal(),
		Repairs:            s.repairs.Int(),
		SetsRepaired:       s.setsRepaired.Int(),
		SetsRepairReused:   s.setsRepairReused.Int(),
		RepairColdResets:   s.repairColdResets.Int(),
		RepairTotalMs:      s.repairTotalMs.Value(),
		RepairMaxMs:        s.repairMaxMs.Value(),
		StaleBypasses:      s.staleBypasses.Int(),
		Demotions:          s.demotions.Int(),
		Promotions:         s.promotions.Int(),
		SpillDrops:         s.spillDrops.Int(),
		SpillFailures:      s.spillFailures.Int(),
		SpilledCollections: s.spilledCount(),
		SpillBytes:         s.ledger.SumComponent("rr_spill"),
	}
}
