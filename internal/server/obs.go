package server

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diffusion"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/rng"
)

// obsState is the server's observability substrate: the metrics registry
// behind /metrics and the registry-backed sections of /v1/stats, the
// bounded trace ring behind /v1/trace/*, the request-id generator, and
// the structured access log. Everything here is wired once in New; the
// request path only increments pre-resolved instruments.
type obsState struct {
	reg  *obs.Registry
	ring *obs.TraceRing // nil = tracing disabled

	accessLog *slog.Logger // nil = no request logging

	// idMu guards idRng: request-id generation is the only serve-path use
	// of randomness, and it must not come from math/rand (the serve path
	// is otherwise fully keyed). One short critical section per request.
	idMu  sync.Mutex
	idRng *rng.Rand

	// endpoints maps endpoint name → pre-resolved instruments; read-only
	// after New (the endpoint set is fixed).
	endpoints map[string]*endpointInstruments

	// phaseHist aggregates span durations of finished traces into
	// fixed-bucket histograms (one series per span name), fed only when
	// the request was traced; the tier histograms live in tieredRuntime.
	phaseHist *obs.HistogramVec

	// Batch-concurrency counters (moved here from raw atomics so /metrics
	// and /v1/stats read one source of truth).
	batchGroups        *obs.Counter
	batchWarmupItems   *obs.Counter
	batchParallelItems *obs.Counter

	// panics counts handler panics contained by the recovery middleware.
	panics *obs.Counter

	// queryMu guards queryStats: per-dataset constrained-query instrument
	// bundles, created on first touch of each dataset name.
	queryMu    sync.Mutex
	queryStats map[string]*datasetQueryInstruments
	queryVecs  struct {
		constrained, weighted, batch, rejections *obs.CounterVec
	}

	// slo holds the rolling error budgets, one per tier class: budgeted
	// queries burn on sheds, 5xx, and blown latency budgets; unbudgeted
	// ones on 5xx only. /metrics, /v1/stats, and /v1/health/slo read the
	// same budgets.
	slo map[string]*obs.ErrorBudget
}

// SLO tier classes: requests that carried a latency budget and those
// that did not burn separate error budgets — one noisy budgeted tenant
// must not mask (or be masked by) the unbudgeted baseline.
const (
	sloClassBudgeted   = "budgeted"
	sloClassUnbudgeted = "unbudgeted"
)

// endpointInstruments are the registry instruments behind one endpoint's
// /v1/stats section. The counters are the storage — endpointStats is
// built from them at snapshot time.
type endpointInstruments struct {
	requests    *obs.Counter
	errors      *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	latencySum  *obs.Counter // total latency ms, monotone
	latencyMax  *obs.Gauge
	latency     *obs.Histogram
}

// datasetQueryInstruments are the registry counters behind one dataset's
// query-subsystem section.
type datasetQueryInstruments struct {
	constrained *obs.Counter
	weighted    *obs.Counter
	batch       *obs.Counter
	rejections  *obs.Counter
}

// servedEndpoints is the fixed endpoint label set of the per-endpoint
// instruments (and the pre-seeded keys of the /v1/stats endpoints map).
var servedEndpoints = []string{"maximize", "spread", "update", "batch"}

// newObsState builds the registry, resolves every instrument the request
// path touches, and registers the scrape-time mirrors of subsystems that
// keep their own counters (admission gate, sampler/scratch pools, result
// cache, rr-store gauges).
func newObsState(ringCap int, accessLog *slog.Logger, idSeed uint64, sloObjective float64) *obsState {
	reg := obs.NewRegistry()
	o := &obsState{
		reg:        reg,
		ring:       obs.NewTraceRing(ringCap),
		accessLog:  accessLog,
		idRng:      rng.New(idSeed),
		endpoints:  make(map[string]*endpointInstruments, len(servedEndpoints)),
		queryStats: make(map[string]*datasetQueryInstruments),
		slo: map[string]*obs.ErrorBudget{
			sloClassBudgeted:   obs.NewErrorBudget(sloObjective),
			sloClassUnbudgeted: obs.NewErrorBudget(sloObjective),
		},
	}

	requests := reg.CounterVec("timserver_requests_total", "Requests received, by endpoint.", "endpoint")
	errs := reg.CounterVec("timserver_request_errors_total", "Requests answered with an error, by endpoint.", "endpoint")
	hits := reg.CounterVec("timserver_result_cache_endpoint_hits_total", "Requests answered from the result cache, by endpoint.", "endpoint")
	misses := reg.CounterVec("timserver_result_cache_endpoint_misses_total", "Requests computed (result-cache miss), by endpoint.", "endpoint")
	latSum := reg.CounterVec("timserver_request_latency_ms_sum_total", "Total request latency in milliseconds, by endpoint.", "endpoint")
	latMax := reg.GaugeVec("timserver_request_latency_ms_max", "Max request latency in milliseconds, by endpoint.", "endpoint")
	latHist := reg.HistogramVec("timserver_request_duration_ms", "Request latency in milliseconds, by endpoint.", nil, "endpoint")
	for _, name := range servedEndpoints {
		o.endpoints[name] = &endpointInstruments{
			requests:    requests.With(name),
			errors:      errs.With(name),
			cacheHits:   hits.With(name),
			cacheMisses: misses.With(name),
			latencySum:  latSum.With(name),
			latencyMax:  latMax.With(name),
			latency:     latHist.With(name),
		}
	}

	o.phaseHist = reg.HistogramVec("timserver_phase_duration_ms", "Traced span duration in milliseconds, by phase (span name). Only traced requests feed this.", nil, "phase")

	o.panics = reg.Counter("timserver_panics_total", "Handler panics contained by the recovery middleware (each answered with a 500 instead of killing the process).")

	o.batchGroups = reg.Counter("timserver_batch_groups_total", "RR-collection sharing groups across batch requests.")
	o.batchWarmupItems = reg.Counter("timserver_batch_warmup_items_total", "Batch items run sequentially to warm a shared collection.")
	o.batchParallelItems = reg.Counter("timserver_batch_parallel_items_total", "Batch items run concurrently.")

	o.queryVecs.constrained = reg.CounterVec("timserver_constrained_queries_total", "Maximize queries carrying any constraint field, by dataset.", "dataset")
	o.queryVecs.weighted = reg.CounterVec("timserver_weighted_collections_total", "Weighted (audience-profile) RR collections created, by dataset.", "dataset")
	o.queryVecs.batch = reg.CounterVec("timserver_batch_queries_total", "Queries arriving via /v1/query/batch, by dataset.", "dataset")
	o.queryVecs.rejections = reg.CounterVec("timserver_constraint_rejections_total", "Queries rejected for invalid constraints, by dataset.", "dataset")

	return o
}

// registerMirrors adds the scrape-time views of subsystems that own their
// counters elsewhere: the process-wide pools, the admission gate, the
// result cache, the rr-store entry count, and uptime. These are func-
// backed — /metrics and /v1/stats read the same single source of truth.
func (o *obsState) registerMirrors(s *Server) {
	o.reg.GaugeFunc("timserver_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })

	o.reg.CounterFunc("timserver_gate_admitted_total", "Queries admitted by the in-flight gate.",
		func() float64 { return float64(s.tiered.gate.Stats().Admitted) })
	o.reg.CounterFunc("timserver_gate_shed_total", "Budgeted queries shed at the gate (server at capacity).",
		func() float64 { return float64(s.tiered.gate.Stats().Shed) })
	o.reg.GaugeFunc("timserver_gate_in_flight", "Queries currently holding a gate slot.",
		func() float64 { return float64(s.tiered.gate.Stats().InFlight) })
	o.reg.GaugeFunc("timserver_gate_capacity", "Gate capacity (max in-flight queries).",
		func() float64 { return float64(s.tiered.gate.Stats().Capacity) })

	o.reg.CounterFunc("timserver_result_cache_hits_total", "Result-cache hits.",
		func() float64 { return float64(s.results.stats().Hits) })
	o.reg.CounterFunc("timserver_result_cache_misses_total", "Result-cache misses.",
		func() float64 { return float64(s.results.stats().Misses) })
	o.reg.CounterFunc("timserver_result_cache_evictions_total", "Result-cache evictions.",
		func() float64 { return float64(s.results.stats().Evictions) })
	o.reg.GaugeFunc("timserver_result_cache_entries", "Result-cache live entries.",
		func() float64 { return float64(s.results.stats().Size) })

	o.reg.GaugeFunc("timserver_rr_collections", "Live RR collections in the reuse layer.",
		func() float64 { return float64(s.rr.stats().Collections) })

	o.reg.CounterFunc("timserver_sampler_pool_hits_total", "RR-sampler acquisitions served from the recycling pool (process-wide).",
		func() float64 { h, _ := diffusion.SamplerPoolStats(); return float64(h) })
	o.reg.CounterFunc("timserver_sampler_pool_misses_total", "RR-sampler acquisitions that built a fresh sampler (process-wide).",
		func() float64 { _, m := diffusion.SamplerPoolStats(); return float64(m) })
	o.reg.CounterFunc("timserver_select_scratch_hits_total", "Selection-scratch pool hits (process-wide).",
		func() float64 { h, _ := maxcover.ScratchPoolStats(); return float64(h) })
	o.reg.CounterFunc("timserver_select_scratch_misses_total", "Selection-scratch pool misses (process-wide).",
		func() float64 { _, m := maxcover.ScratchPoolStats(); return float64(m) })

	// Capacity: one labeled gauge per ledger leaf, plus the roll-up and
	// (when configured) the budget and headroom. The leaf set is fixed at
	// startup (registerLedger), so the label space is bounded.
	capVec := o.reg.GaugeVec("timserver_capacity_bytes", "Ledger-accounted resident bytes, by dataset and component.", "dataset", "component")
	s.ledger.Each(func(path []string, _ int64) {
		if len(path) != 2 {
			return
		}
		dataset, component := path[0], path[1]
		capVec.Func(func() float64 { return float64(s.ledger.Sum(dataset, component)) }, dataset, component)
	})
	o.reg.GaugeFunc("timserver_capacity_total_bytes", "Total ledger-accounted resident bytes.",
		func() float64 { return float64(s.ledger.Total()) })
	if s.cfg.MemoryBudgetBytes > 0 {
		o.reg.GaugeFunc("timserver_capacity_budget_bytes", "Configured memory budget for ledger-accounted state.",
			func() float64 { return float64(s.cfg.MemoryBudgetBytes) })
		o.reg.GaugeFunc("timserver_capacity_headroom_bytes", "Budget minus ledger total (negative = over budget).",
			func() float64 { return float64(s.cfg.MemoryBudgetBytes - s.ledger.Total()) })
	}

	// SLO error budgets: burn rates per class and window, plus the coarse
	// state (0 ok, 1 warn, 2 critical) alerting rules can threshold on.
	burnVec := o.reg.GaugeVec("timserver_slo_burn_rate", "Error-budget burn rate by tier class and window (1.0 = consuming exactly the objective).", "class", "window")
	stateVec := o.reg.GaugeVec("timserver_slo_state", "Error-budget state by tier class: 0 ok, 1 warn, 2 critical.", "class")
	for class, b := range o.slo {
		b := b
		burnVec.Func(func() float64 { return b.Burn(obs.BurnFastWindow) }, class, "5m")
		burnVec.Func(func() float64 { return b.Burn(obs.BurnSlowWindow) }, class, "1h")
		stateVec.Func(func() float64 { return sloStateValue(b.State()) }, class)
	}

	// Go runtime self-metrics (goroutines, heap in-use, GC pauses,
	// process uptime) ride the same registry and cardinality lint.
	obs.RegisterRuntimeMetrics(o.reg)
}

// sloStateValue maps a budget state onto the metric encoding.
func sloStateValue(st obs.BudgetState) float64 {
	switch st {
	case obs.BudgetWarn:
		return 1
	case obs.BudgetCritical:
		return 2
	}
	return 0
}

// sloObserve records one maximize-shaped outcome against its tier
// class's error budget.
func (o *obsState) sloObserve(budgeted, bad bool) {
	class := sloClassUnbudgeted
	if budgeted {
		class = sloClassBudgeted
	}
	o.slo[class].Observe(bad)
}

// newRequestID draws a fresh request id from the keyed generator:
// 16 hex characters, unique per server process for any practical count.
func (o *obsState) newRequestID() string {
	o.idMu.Lock()
	v := o.idRng.Uint64()
	o.idMu.Unlock()
	return fmt.Sprintf("%016x", v)
}

// queryInstr resolves (creating on first touch) the per-dataset query
// counters for one dataset name.
func (o *obsState) queryInstr(dataset string) *datasetQueryInstruments {
	if dataset == "" {
		dataset = "(none)"
	}
	o.queryMu.Lock()
	defer o.queryMu.Unlock()
	q := o.queryStats[dataset]
	if q == nil {
		q = &datasetQueryInstruments{
			constrained: o.queryVecs.constrained.With(dataset),
			weighted:    o.queryVecs.weighted.With(dataset),
			batch:       o.queryVecs.batch.With(dataset),
			rejections:  o.queryVecs.rejections.With(dataset),
		}
		o.queryStats[dataset] = q
	}
	return q
}

// querySnapshot renders the per-dataset counters as the /v1/stats
// query_subsystem section (same JSON shape as before the registry).
func (o *obsState) querySnapshot() map[string]datasetQueryStats {
	o.queryMu.Lock()
	defer o.queryMu.Unlock()
	out := make(map[string]datasetQueryStats, len(o.queryStats))
	for name, q := range o.queryStats {
		out[name] = datasetQueryStats{
			ConstrainedQueries:   q.constrained.Int(),
			WeightedCollections:  q.weighted.Int(),
			BatchQueries:         q.batch.Int(),
			ConstraintRejections: q.rejections.Int(),
		}
	}
	return out
}

// endpointSnapshot renders the per-endpoint instruments as the /v1/stats
// endpoints section.
func (o *obsState) endpointSnapshot() map[string]endpointStats {
	out := make(map[string]endpointStats, len(o.endpoints))
	for name, e := range o.endpoints {
		out[name] = endpointStats{
			Requests:       e.requests.Int(),
			Errors:         e.errors.Int(),
			CacheHits:      e.cacheHits.Int(),
			CacheMisses:    e.cacheMisses.Int(),
			TotalLatencyMs: e.latencySum.Value(),
			MaxLatencyMs:   e.latencyMax.Value(),
		}
	}
	return out
}

// reqMeta rides the request context: the request id every /v1/* response
// echoes (and reports as trace_id), plus the fields the access log reads
// after the handler returns. The scalar fields are written only by the
// request's own goroutine; escalated/fellBack are atomic because answer()
// may run on batch-item goroutines.
type reqMeta struct {
	id       string
	endpoint string
	dataset  string
	tier     string
	epsilon  float64
	cacheHit bool

	escalated atomic.Bool
	fellBack  atomic.Bool
}

type reqMetaKey struct{}

// requestMeta returns the request metadata carried by ctx (nil outside
// the middleware, e.g. in direct doMaximize tests — every reader is
// nil-tolerant).
func requestMeta(ctx context.Context) *reqMeta {
	if ctx == nil {
		return nil
	}
	m, _ := ctx.Value(reqMetaKey{}).(*reqMeta)
	return m
}

// statusWriter captures the response status for the access log, and
// whether anything was committed to the wire — the panic middleware can
// only substitute a 500 body while nothing has been written.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// tracedPaths are the compute endpoints that get a per-request Trace;
// introspection endpoints (/v1/stats, /v1/trace/*, /v1/datasets) echo
// request ids but are never traced — tracing them would churn the ring
// with no-op traces.
func tracedPath(method, path string) bool {
	if method != http.MethodPost {
		return false
	}
	switch path {
	case "/v1/maximize", "/v1/query/batch", "/v1/spread", "/v1/update":
		return true
	}
	return false
}

// handleMetrics serves GET /metrics in Prometheus text exposition format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.obs.reg.WritePrometheus(w)
}

// handleTrace serves GET /v1/trace/{id}: the span chain of one retained
// request.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.obs.ring == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "server: tracing disabled"})
		return
	}
	id := r.PathValue("id")
	snap, ok := s.obs.ring.Get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("server: no retained trace %q (ring keeps the last %d)", id, s.cfg.TraceRing)})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleTraceSlow serves GET /v1/trace/slow?n=N: the top-N retained
// traces by elapsed time, slowest first (default 10).
func (s *Server) handleTraceSlow(w http.ResponseWriter, r *http.Request) {
	if s.obs.ring == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "server: tracing disabled"})
		return
	}
	n := 10
	if q := r.URL.Query().Get("n"); q != "" {
		if _, err := fmt.Sscanf(q, "%d", &n); err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "server: n must be a positive integer"})
			return
		}
	}
	writeJSON(w, http.StatusOK, struct {
		Traces []obs.TraceSnapshot `json:"traces"`
	}{Traces: s.obs.ring.Slowest(n)})
}

// logRequest emits one structured access-log line for a finished /v1/*
// request.
func (o *obsState) logRequest(m *reqMeta, status int, elapsedMs float64) {
	if o.accessLog == nil {
		return
	}
	attrs := []any{
		slog.String("trace_id", m.id),
		slog.String("endpoint", m.endpoint),
		slog.Int("status", status),
		slog.Float64("elapsed_ms", elapsedMs),
	}
	if m.dataset != "" {
		attrs = append(attrs, slog.String("dataset", m.dataset))
	}
	if m.tier != "" {
		attrs = append(attrs, slog.String("tier", m.tier))
	}
	if m.epsilon > 0 {
		attrs = append(attrs, slog.Float64("epsilon", m.epsilon))
	}
	if m.cacheHit {
		attrs = append(attrs, slog.Bool("cached", true))
	}
	if m.escalated.Load() {
		attrs = append(attrs, slog.Bool("escalated", true))
	}
	if m.fellBack.Load() {
		attrs = append(attrs, slog.Bool("deadline_fallback", true))
	}
	if status == http.StatusServiceUnavailable {
		attrs = append(attrs, slog.Bool("shed", true))
	}
	// Compute requests log at info, introspection scrapes (stats, trace,
	// datasets — endpoint "") at debug so a watched server stays quiet,
	// and server errors at warn.
	level := slog.LevelInfo
	if m.endpoint == "" {
		level = slog.LevelDebug
	}
	if status >= 500 {
		level = slog.LevelWarn
	}
	o.accessLog.LogAttrs(context.Background(), level, "request", slog.Group("req", attrs...))
}

// endpointOf maps a /v1/* path to its stats endpoint name ("" for
// introspection paths, which keep no per-endpoint counters).
func endpointOf(path string) string {
	switch path {
	case "/v1/maximize":
		return "maximize"
	case "/v1/query/batch":
		return "batch"
	case "/v1/spread":
		return "spread"
	case "/v1/update":
		return "update"
	}
	return ""
}
