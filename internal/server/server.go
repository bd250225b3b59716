// Package server implements the influence-maximization query service
// behind cmd/timserver: a long-lived HTTP/JSON front end over the tim,
// spread, and diffusion packages.
//
// Three layers make repeated queries cheap, in decreasing order of
// savings:
//
//  1. A graph registry loads each named dataset once at startup
//     configuration and weights it once per diffusion model, so no query
//     ever pays graph construction.
//  2. An LRU result cache keyed on the full query tuple answers exact
//     repeats without any computation.
//  3. An RR-collection reuse layer keyed on (dataset, model, ε) feeds
//     tim's node-selection phase through the tim.CollectionSource hook:
//     a query needing θ₂ RR sets after an earlier query sampled θ₁ < θ₂
//     extends the cached collection by θ₂ − θ₁ sets instead of
//     resampling from scratch — the Borgs et al. amortization argument
//     turned into a data structure. Extensions are prefix-deterministic,
//     so a warm cache can never change an answer, only skip work. Each
//     collection's cover index is likewise built once per collection
//     state and shared, so warm queries skip re-indexing θ sets too.
//
// Datasets are mutable: POST /v1/update applies a batched topology
// mutation (edge inserts/deletes, node growth) through the evolving-graph
// layer (internal/evolve). Queries always run against an immutable
// snapshot, caches are keyed by graph version, and warm RR collections
// are repaired incrementally — only the sets an update could have touched
// are re-derived — instead of being dropped, so the server keeps
// answering exactly as a cold server on the mutated graph would while
// resampling a fraction of the sets.
//
// Maximize-shaped queries also accept constraints (internal/query):
// targeted audience weights, seeding costs under a budget, forced or
// excluded seeds, and a max-hops diffusion deadline. Audience and horizon
// constraints key their own RR collections (by compiled profile hash);
// selection-only constraints share the unconstrained ones. POST
// /v1/query/batch answers up to MaxBatchQueries maximize queries in one
// round-trip, bounded-parallel: items sharing a warm collection warm it
// once (largest predicted θ first) and then run concurrently, with
// answers identical to a sequential batch. /v1/stats reports per-dataset
// query-subsystem counters plus the parallel section (scratch-pool reuse,
// batch concurrency).
//
// Endpoints: POST /v1/maximize, POST /v1/query/batch, POST /v1/spread,
// POST /v1/update, GET /v1/stats, GET /v1/datasets, GET /v1/capacity,
// GET /v1/health/slo, GET /healthz. Every request runs under a
// configurable timeout whose context threads into the sampling loops
// via tim.MaximizeContext, so a slow query cannot wedge a worker
// forever.
//
// Observability state (the capacity ledger, SLO error budgets, and the
// optional query flight recorder) is described in DESIGN.md §13.
package server

import (
	"context"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"repro/internal/diffusion"
	"repro/internal/diskrr"
	"repro/internal/evolve"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/wal"
)

// Config configures New. The zero value of every field except Datasets is
// usable.
type Config struct {
	// Datasets is the registry content. Queries can only reference these.
	Datasets []DatasetSpec
	// CacheSize bounds the LRU result cache (default 256 entries).
	CacheSize int
	// RRCollections bounds the RR-collection reuse layer to this many
	// live (dataset, model, ε) collections (default 64); the least
	// recently used collection is evicted beyond that. ε is
	// client-supplied, so without a bound the reuse layer would grow
	// with the number of distinct query tuples ever seen.
	RRCollections int
	// RequestTimeout bounds each query's computation (default 60s; the
	// context is threaded into tim's sampling loops, so timeouts abort
	// promptly rather than after the current phase).
	RequestTimeout time.Duration
	// MaxTheta bounds the RR sets any single query may sample (default
	// 4 million; θ grows as 1/ε², so without a cap one tiny-ε request
	// can exhaust server memory inside the request timeout). Responses
	// report theta_capped when the cap bound; the approximation
	// guarantee is void for such queries.
	MaxTheta int64
	// Workers is the per-query parallelism (default GOMAXPROCS): RR
	// sampling, the max-cover index build, and coverage counting all scale
	// with it, and answers are byte-identical for every value.
	Workers int
	// BatchParallelism bounds how many /v1/query/batch items execute
	// concurrently (default GOMAXPROCS; 1 restores fully sequential
	// batches). Items that share a warm RR collection still warm it in
	// order — the predicted-largest-θ item of each sharing group runs
	// first — so batch parallelism overlaps per-item selection without
	// duplicating sampling work, and answers are identical to a
	// sequential batch (reuse can only skip work, never change a result).
	BatchParallelism int
	// MaxInFlight bounds concurrently executing maximize-shaped queries
	// (default 2×GOMAXPROCS). Budgeted queries finding the gate full are
	// rejected immediately with 503 + Retry-After (their budget would
	// expire in the queue); unbudgeted queries wait their turn.
	MaxInFlight int
	// EpsLadder is the ε escalation ladder for budgeted queries (default
	// tiered.DefaultLadder): under latency pressure a query coarsens along
	// these rungs, each of which maps to its own shared RR collection, so
	// a budgeted answer at rung ε is bit-identical to an unbudgeted query
	// at that ε.
	EpsLadder []float64
	// Seed is the base seed of the RR reuse layer and the default query
	// seed. Two servers with equal Config answer identically.
	Seed uint64
	// MaxDeltaLog bounds the mutations each dataset retains for
	// incremental RR-collection repair (default 1<<20). A warm collection
	// older than the retained window resets cold on its next use instead
	// of repairing.
	MaxDeltaLog int
	// TraceRing bounds the in-memory ring of completed request traces
	// behind GET /v1/trace/{id} and /v1/trace/slow (default 256; negative
	// disables tracing entirely — requests then skip trace allocation and
	// every span call is a no-op, the nil-trace fast path).
	TraceRing int
	// AccessLog, when non-nil, receives one structured line per /v1/*
	// request (trace id, endpoint, dataset, tier, ε, status, elapsed,
	// shed/escalated flags). nil keeps the server silent.
	AccessLog *slog.Logger
	// MemoryBudgetBytes is the operator's memory budget for the
	// ledger-accounted state; GET /v1/capacity reports headroom against
	// it. 0 means unbudgeted (headroom is then omitted). With a spill
	// directory configured it is also an eviction trigger: while the
	// RAM tier exceeds the budget, the rr-store demotes LRU collections
	// to disk.
	MemoryBudgetBytes int64
	// SpillDir enables the out-of-core spill tier: RR collections
	// evicted from the rr-store demote to spill files here (and promote
	// back on their next query) instead of being discarded, and
	// MmapDatasets places its CSR backing files here. The directory is
	// created if missing and purged of spill artifacts at startup (the
	// tier's index dies with the process). Empty disables the tier.
	SpillDir string
	// DiskBudgetBytes bounds the spill tier's on-disk bytes; beyond it
	// the oldest spilled collection is dropped. 0 means unbudgeted.
	DiskBudgetBytes int64
	// MmapDatasets serves synthetic datasets' CSR snapshots from
	// memory-mapped files under SpillDir instead of heap slices, so a
	// graph larger than RAM pages on demand. Requires SpillDir; on
	// platforms without mmap support the flag is ignored and graphs
	// stay heap-resident.
	MmapDatasets bool
	// QLogPath, when non-empty, enables the query flight recorder: a
	// schema-versioned JSONL file (one header line, then one sampled
	// record per maximize-shaped answer) that cmd/timload can replay.
	QLogPath string
	// QLogSample keeps every Nth query record (default 1 = all).
	QLogSample int
	// QLogMaxRecords caps the records written over the process lifetime
	// (default 100000; negative = unbounded).
	QLogMaxRecords int
	// SLOObjective is the tolerated bad fraction per tier class for the
	// rolling error budgets behind /v1/health/slo (default 0.01 — a 99%
	// objective).
	SLOObjective float64
	// WALDir, when non-empty, enables the durable update WAL: every
	// committed /v1/update batch is logged (one subdirectory per dataset)
	// before it is acked, and startup recovers each dataset from its
	// latest checkpoint plus the log tail. Empty keeps updates
	// memory-only (the pre-WAL behavior).
	WALDir string
	// WALSync is the fsync policy for WAL appends: "always" (default;
	// an acked update survives any crash), "interval" (fsync at most
	// once per WALSyncEvery), or "none" (the OS decides; recovery still
	// works, but recently acked updates may be lost).
	WALSync string
	// WALSyncEvery is the cadence of WALSync=interval (default 200ms).
	WALSyncEvery time.Duration
	// CheckpointEvery writes a checkpoint (materialized topology
	// snapshot + WAL truncation) every N update batches per dataset,
	// bounding recovery replay by N. Default 64; negative disables
	// automatic checkpoints (the log then grows until restart).
	CheckpointEvery int
}

func (c Config) withDefaults() Config {
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.RRCollections == 0 {
		c.RRCollections = 64
	}
	if c.RequestTimeout == 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxTheta == 0 {
		c.MaxTheta = 4_000_000
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchParallelism <= 0 {
		c.BatchParallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.TraceRing == 0 {
		c.TraceRing = 256
	}
	if c.QLogSample < 1 {
		c.QLogSample = 1
	}
	if c.QLogMaxRecords == 0 {
		c.QLogMaxRecords = 100_000
	}
	if c.SLOObjective <= 0 || c.SLOObjective >= 1 {
		c.SLOObjective = 0.01
	}
	if c.WALSync == "" {
		c.WALSync = "always"
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 64
	}
	return c
}

// Server is the query service. It implements http.Handler; wrap it in an
// http.Server (as cmd/timserver does) to listen on a port.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	registry *registry
	results  *lruCache
	rr       *rrStore
	tiered   *tieredRuntime
	start    time.Time

	// ledger is the capacity ledger: the hierarchical byte-accounting
	// tree every memory-holding subsystem (rr-store, result cache, CSR
	// snapshots, tiered scorers, scratch pools) reports into. /metrics,
	// /v1/stats, and /v1/capacity are all views of it.
	ledger *obs.Ledger
	// qlog is the query flight recorder (nil when disabled).
	qlog *obs.QLog

	// obs is the observability substrate: the metrics registry (every
	// /v1/stats counter below is a registry instrument — /metrics and the
	// JSON snapshot are two views of one source of truth), the trace
	// ring, the request-id generator, and the access log.
	obs *obsState

	// WAL state: what startup recovery found (for the startup line and
	// /v1/stats) and the effective sync policy.
	walEnabled bool
	walSync    wal.SyncPolicy
	recovery   []DatasetRecovery
}

// parallelStats is the /v1/stats snapshot of the parallel-execution
// subsystem: scratch-pool reuse and batch concurrency. The pool counters
// are process-wide (the sampler and selection pools live in their
// packages, shared by every server in the process), so they are
// monotone across the process lifetime, not per-server.
type parallelStats struct {
	// SamplerPoolHits/Misses count RR-sampler acquisitions served from
	// the recycling pool vs fresh constructions (diffusion package).
	SamplerPoolHits   int64 `json:"sampler_pool_hits"`
	SamplerPoolMisses int64 `json:"sampler_pool_misses"`
	// SelectScratchHits/Misses count selection scratch (occurrence
	// counts, CSR arrays, cover bitmaps, seed marks) pool reuse
	// (maxcover package).
	SelectScratchHits   int64 `json:"select_scratch_hits"`
	SelectScratchMisses int64 `json:"select_scratch_misses"`
	// BatchParallelism echoes the configured concurrency bound.
	BatchParallelism int `json:"batch_parallelism"`
	// BatchGroups counts RR-collection sharing groups across batches;
	// BatchWarmupItems the items run sequentially to warm a shared
	// collection; BatchParallelItems the items run concurrently.
	BatchGroups        int64 `json:"batch_groups"`
	BatchWarmupItems   int64 `json:"batch_warmup_items"`
	BatchParallelItems int64 `json:"batch_parallel_items"`
}

func (s *Server) parallelStatsSnapshot() parallelStats {
	samplerHits, samplerMisses := diffusion.SamplerPoolStats()
	scratchHits, scratchMisses := maxcover.ScratchPoolStats()
	return parallelStats{
		SamplerPoolHits:     samplerHits,
		SamplerPoolMisses:   samplerMisses,
		SelectScratchHits:   scratchHits,
		SelectScratchMisses: scratchMisses,
		BatchParallelism:    s.cfg.BatchParallelism,
		BatchGroups:         s.obs.batchGroups.Int(),
		BatchWarmupItems:    s.obs.batchWarmupItems.Int(),
		BatchParallelItems:  s.obs.batchParallelItems.Int(),
	}
}

// datasetQueryStats are the per-dataset query-subsystem counters of
// /v1/stats, following the repair-counter pattern: cheap monotone
// counters that let operators see which datasets run constrained
// workloads without sampling traffic.
type datasetQueryStats struct {
	// ConstrainedQueries counts /v1/maximize-style queries that carried
	// any constraint field (including batch items).
	ConstrainedQueries int64 `json:"constrained_queries"`
	// WeightedCollections counts weighted (audience-profile) RR
	// collections created in the reuse layer for this dataset.
	WeightedCollections int64 `json:"weighted_collections"`
	// BatchQueries counts queries that arrived via POST /v1/query/batch.
	BatchQueries int64 `json:"batch_queries"`
	// ConstraintRejections counts queries rejected for invalid
	// constraints (4xx), before any sampling ran.
	ConstraintRejections int64 `json:"constraint_rejections"`
}

// bumpQuery applies f to the named dataset's query instruments. Unknown
// dataset names still count: a rejected query may fail before the
// registry resolves, and operators want to see those too.
func (s *Server) bumpQuery(dataset string, f func(*datasetQueryInstruments)) {
	f(s.obs.queryInstr(dataset))
}

// endpointStats are the per-endpoint counters of /v1/stats.
type endpointStats struct {
	Requests       int64   `json:"requests"`
	Errors         int64   `json:"errors"`
	CacheHits      int64   `json:"cache_hits"`
	CacheMisses    int64   `json:"cache_misses"`
	TotalLatencyMs float64 `json:"total_latency_ms"`
	MaxLatencyMs   float64 `json:"max_latency_ms"`
}

// New builds a Server from cfg. Dataset files are not opened until the
// first query touches them; New fails only on malformed configuration.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.SpillDir != "" {
		// The spill tier is a volatile cache whose index lives in this
		// process: purge artifacts a previous process left behind
		// (finished spills, torn .tmp files from a crash mid-demotion,
		// mmap backing files) before anything can collide with them.
		if err := os.MkdirAll(cfg.SpillDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: creating spill dir: %w", err)
		}
		if _, err := diskrr.PurgeSpillDir(cfg.SpillDir); err != nil {
			return nil, fmt.Errorf("server: purging spill dir: %w", err)
		}
	}
	mmapDir := ""
	if cfg.MmapDatasets && cfg.SpillDir != "" {
		mmapDir = cfg.SpillDir
	}
	reg, err := newRegistry(cfg.Datasets, evolve.Options{MaxLogMutations: cfg.MaxDeltaLog}, mmapDir)
	if err != nil {
		return nil, err
	}
	var (
		recovery []DatasetRecovery
		walSync  wal.SyncPolicy
	)
	if cfg.WALDir != "" {
		walSync, err = wal.ParseSyncPolicy(cfg.WALSync)
		if err != nil {
			return nil, err
		}
		logf := log.Printf
		if cfg.AccessLog != nil {
			al := cfg.AccessLog
			logf = func(format string, args ...any) { al.Warn(fmt.Sprintf(format, args...)) }
		}
		recovery, err = reg.attachWAL(cfg.WALDir,
			wal.Options{Sync: walSync, SyncEvery: cfg.WALSyncEvery, Logf: logf},
			cfg.CheckpointEvery, logf)
		if err != nil {
			return nil, err
		}
	}
	// The request-id stream is keyed off the config seed but salted with
	// wall-clock time: ids must differ across server restarts (operators
	// grep logs by them), while answers stay seed-deterministic.
	o := newObsState(cfg.TraceRing, cfg.AccessLog, cfg.Seed^uint64(time.Now().UnixNano()), cfg.SLOObjective)
	ledger := obs.NewLedger()
	tiered := newTieredRuntime(cfg.MaxInFlight, cfg.EpsLadder, o.reg)
	rrCfg := rrStoreConfig{
		Seed:       cfg.Seed,
		Capacity:   cfg.RRCollections,
		SpillDir:   cfg.SpillDir,
		DiskBudget: cfg.DiskBudgetBytes,
		MemBudget:  cfg.MemoryBudgetBytes,
		// The RAM-tier total: everything in the ledger except the disk
		// components (spill files, WAL). Using ledger.Total() here would
		// count the bytes demotion just moved to disk against the memory
		// budget, and eviction could never converge.
		RAMBytes: func() int64 { return ledger.Total() - ledger.SumComponents(diskComponents...) },
		// Each completed promotion calibrates the planner's
		// promotion-latency model for the key's (dataset, model).
		OnPromote: func(key string, bytes int64, ms float64) {
			tiered.planner.ObservePromotion(rrKeyCost(key), bytes, ms)
		},
	}
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		registry: reg,
		results:  newLRUCache(cfg.CacheSize, ledger),
		rr:       newRRStore(rrCfg, o.reg, ledger),
		tiered:   tiered,
		start:    time.Now(),
		ledger:   ledger,
		obs:      o,

		walEnabled: cfg.WALDir != "",
		walSync:    walSync,
		recovery:   recovery,
	}
	s.registerLedger()
	o.registerMirrors(s)
	if cfg.QLogPath != "" {
		q, err := obs.OpenQLog(cfg.QLogPath, s.qlogHeader(), cfg.QLogSample, cfg.QLogMaxRecords)
		if err != nil {
			return nil, err
		}
		s.qlog = q
	}
	s.mux.HandleFunc("POST /v1/maximize", s.handleMaximize)
	s.mux.HandleFunc("POST /v1/query/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/spread", s.handleSpread)
	s.mux.HandleFunc("POST /v1/update", s.handleUpdate)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/datasets", s.handleDatasets)
	s.mux.HandleFunc("GET /v1/capacity", s.handleCapacity)
	s.mux.HandleFunc("GET /v1/health/slo", s.handleHealthSLO)
	s.mux.HandleFunc("GET /v1/trace/slow", s.handleTraceSlow)
	s.mux.HandleFunc("GET /v1/trace/{id}", s.handleTrace)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s, nil
}

// registerLedger installs every ledger leaf the server owns. Mutable
// accounts (rr_collections, result_cache) are pre-created per dataset
// so the leaf set — and the capacity gauge's label space — is fixed at
// startup; computed leaves read state whose authoritative size lives
// elsewhere (CSR snapshots, scorers, process-wide pools).
func (s *Server) registerLedger() {
	for _, spec := range s.registry.specs() {
		name := spec.Name
		s.ledger.Account(name, "rr_collections")
		s.ledger.Account(name, "result_cache")
		if s.cfg.SpillDir != "" {
			s.ledger.Account(name, "rr_spill")
		}
		s.ledger.AccountFunc(func() int64 { return s.registry.snapshotBytes(name) }, name, "csr_snapshots")
		s.ledger.AccountFunc(func() int64 { return s.tiered.scorerBytes(name) }, name, "tiered_scorers")
		if s.walEnabled {
			// Durable bytes (log + checkpoint file), not resident memory —
			// accounted so one budget view covers everything state costs.
			s.ledger.AccountFunc(func() int64 { return s.registry.walBytes(name) }, name, "wal")
		}
	}
	// The sampler and selection scratch pools are process-wide (shared by
	// every server in the process) and sync.Pool-backed, so their leaves
	// are best-effort retention upper bounds, not exact counts.
	s.ledger.AccountFunc(diffusion.SamplerPoolBytes, "(process)", "sampler_pool")
	s.ledger.AccountFunc(maxcover.ScratchPoolBytes, "(process)", "select_scratch")
}

// qlogHeader pins the recording server's identity — dataset specs with
// their build seeds, the base seed, the ε ladder — so a replay can
// rebuild an identically-seeded instance from the file alone.
func (s *Server) qlogHeader() obs.QLogHeader {
	h := obs.QLogHeader{Seed: s.cfg.Seed, EpsLadder: s.tiered.planner.Ladder()}
	for _, spec := range s.registry.specs() {
		h.Datasets = append(h.Datasets, obs.QLogDataset{Name: spec.Name, Source: spec.Source, Seed: spec.Seed})
	}
	return h
}

// Close flushes and closes the query flight recorder (a no-op when
// recording is disabled) and syncs and closes every dataset's WAL. The
// server keeps serving; callers close during drain, after the listener
// stops.
func (s *Server) Close() error {
	err := s.qlog.Close()
	if werr := s.registry.closeWAL(); werr != nil && err == nil {
		err = werr
	}
	return err
}

// Recovery reports what WAL recovery restored at startup, one entry per
// dataset (nil when the WAL is disabled). cmd/timserver logs these.
func (s *Server) Recovery() []DatasetRecovery { return s.recovery }

// ServeHTTP implements http.Handler. /v1/* requests pass through the
// observability middleware: the request id is read from X-Request-ID (or
// generated), echoed on the response, and carried in the context for
// handlers to report as trace_id; compute endpoints additionally get a
// per-request Trace whose finished span chain lands in the trace ring,
// feeds the phase histograms, and is summarized on the access log.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !strings.HasPrefix(r.URL.Path, "/v1/") {
		s.serveRecovered(&statusWriter{ResponseWriter: w, status: http.StatusOK}, r, "")
		return
	}
	meta := &reqMeta{id: r.Header.Get("X-Request-ID"), endpoint: endpointOf(r.URL.Path)}
	if meta.id == "" {
		meta.id = s.obs.newRequestID()
	}
	w.Header().Set("X-Request-ID", meta.id)
	ctx := context.WithValue(r.Context(), reqMetaKey{}, meta)

	var tr *obs.Trace
	if s.obs.ring != nil && tracedPath(r.Method, r.URL.Path) {
		tr = obs.NewTrace(meta.id)
		tr.SetAttr("endpoint", meta.endpoint)
		ctx = obs.WithTrace(ctx, tr)
	}
	sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
	start := time.Now()
	s.serveRecovered(sw, r.WithContext(ctx), meta.id)
	elapsed := msSince(start)

	if tr != nil {
		tr.SetAttr("status", int64(sw.status))
		tr.SetAttr("dataset", meta.dataset)
		tr.Finish()
		s.obs.ring.Add(tr)
		tr.SpanDurations(func(name string, ms float64) {
			s.obs.phaseHist.With(name).Observe(ms)
		})
	}
	s.obs.logRequest(meta, sw.status, elapsed)
}

// serveRecovered dispatches to the mux with panic containment: a
// handler panic becomes a logged 500 carrying the trace id (and bumps
// timserver_panics_total) instead of killing the process and every
// other in-flight request's connection with it. The rest of the
// middleware still runs — the access log and trace record the 500.
func (s *Server) serveRecovered(w *statusWriter, r *http.Request, traceID string) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		s.obs.panics.Inc()
		if s.obs.accessLog != nil {
			s.obs.accessLog.Error("handler panic",
				slog.String("trace_id", traceID),
				slog.Any("panic", rec),
				slog.String("stack", string(debug.Stack())))
		} else {
			log.Printf("server: handler panic (trace_id %s): %v\n%s", traceID, rec, debug.Stack())
		}
		if w.wrote {
			// The handler already committed a response; the status cannot
			// change, but the counter and log above still record the panic.
			w.status = http.StatusInternalServerError
			return
		}
		writeJSON(w, http.StatusInternalServerError, errorResponse{
			Error:   "server: internal error (panic recovered)",
			TraceID: traceID,
		})
	}()
	s.mux.ServeHTTP(w, r)
}

// DatasetSummary describes one configured dataset for startup logging.
type DatasetSummary struct {
	Name  string
	Nodes int
	Edges int
}

// WarmDatasets eagerly builds the IC variant of every configured dataset
// and returns their sizes. cmd/timserver calls it before listening, so a
// bad dataset fails startup instead of the first query, and the startup
// log can report sizes; the build is exactly the one that first query
// would have paid.
func (s *Server) WarmDatasets() ([]DatasetSummary, error) {
	infos := s.registry.list()
	out := make([]DatasetSummary, 0, len(infos))
	for _, di := range infos {
		evg, err := s.registry.get(di.Name, diffusion.IC)
		if err != nil {
			return nil, err
		}
		out = append(out, DatasetSummary{Name: di.Name, Nodes: evg.N(), Edges: evg.M()})
	}
	return out, nil
}

// EpsLadder reports the normalized ε escalation ladder in use.
func (s *Server) EpsLadder() []float64 { return s.tiered.planner.Ladder() }

// TraceRing reports the effective retained-trace capacity (0 when
// tracing is disabled) — the normalized value, not the raw config.
func (s *Server) TraceRing() int {
	if s.obs.ring == nil {
		return 0
	}
	return s.cfg.TraceRing
}

// observe records one request's outcome on the named endpoint. The
// instruments are the registry series behind /metrics; /v1/stats builds
// its endpoints section from the same series.
func (s *Server) observe(endpoint string, start time.Time, cacheHit bool, failed bool) {
	ms := float64(time.Since(start).Microseconds()) / 1000
	e := s.obs.endpoints[endpoint]
	e.requests.Inc()
	if failed {
		e.errors.Inc()
	} else if cacheHit {
		e.cacheHits.Inc()
	} else {
		e.cacheMisses.Inc()
	}
	e.latencySum.Add(ms)
	e.latencyMax.SetMax(ms)
	e.latency.Observe(ms)
}
