package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/evolve"
	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tiered"
	"repro/internal/tim"
)

// tieredRuntime glues the latency-tiered subsystem (internal/tiered) into
// the server: the admission gate, the tier planner with its per-dataset
// cost models, the per-(dataset, model) fast-tier scorers, and the
// per-tier answer latency histograms behind /metrics and /v1/stats.
type tieredRuntime struct {
	gate    *tiered.Gate
	planner *tiered.Planner

	mu      sync.Mutex
	scorers map[string]*scorerEntry

	// risLatency and fastLatency are the "ris" and "fast" series of
	// timserver_tier_latency_ms: what the client waited for each answer,
	// by serving tier.
	risLatency  *obs.Histogram
	fastLatency *obs.Histogram

	// escalations counts budgeted queries the planner routed to RIS (at
	// the requested ε or a coarser ladder rung). shedInfeasible counts
	// admitted queries shed because no tier fit their budget and
	// confidence floor — a different refusal than the gate's at-capacity
	// shed. deadlineFallbacks counts RIS attempts whose budget expired
	// mid-run and were answered by the fast tier instead (their sampled
	// prefix stays in the rr-store — the budget ratchet). All are registry
	// instruments: /metrics and /v1/stats read the same cells.
	escalations       *obs.Counter
	shedInfeasible    *obs.Counter
	deadlineFallbacks *obs.Counter

	scorerBuilds    *obs.Counter
	scorerRefreshes *obs.Counter
	scorerRescored  *obs.Counter
}

// scorerEntry is one cached fast-tier scorer, versioned like the rr-store
// entries: version is the graph version the scores reflect.
type scorerEntry struct {
	mu      sync.Mutex
	scorer  *tiered.Scorer
	version uint64
}

func newTieredRuntime(maxInFlight int, ladder []float64, reg *obs.Registry) *tieredRuntime {
	latency := reg.HistogramVec("timserver_tier_latency_ms", "Answer latency in milliseconds, by serving tier.", nil, "tier")
	return &tieredRuntime{
		gate:    tiered.NewGate(maxInFlight),
		planner: tiered.NewPlanner(ladder),
		scorers: make(map[string]*scorerEntry),

		risLatency:  latency.With("ris"),
		fastLatency: latency.With("fast"),

		escalations:       reg.Counter("timserver_escalated_total", "Budgeted queries the planner routed to the RIS tier."),
		shedInfeasible:    reg.Counter("timserver_shed_infeasible_total", "Admitted queries shed because no tier fit their budget and confidence floor."),
		deadlineFallbacks: reg.Counter("timserver_deadline_fallbacks_total", "RIS attempts whose budget expired mid-run, answered by the fast tier."),
		scorerBuilds:      reg.Counter("timserver_scorer_builds_total", "Fast-tier scorer full builds."),
		scorerRefreshes:   reg.Counter("timserver_scorer_refreshes_total", "Fast-tier scorer incremental refreshes."),
		scorerRescored:    reg.Counter("timserver_scorer_nodes_rescored_total", "Nodes rescored by fast-tier scorer refreshes."),
	}
}

// entry returns (creating if needed) the scorer slot for key.
func (t *tieredRuntime) entry(key string) *scorerEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.scorers[key]
	if e == nil {
		e = &scorerEntry{}
		t.scorers[key] = e
	}
	return e
}

// peek returns the scorer slot for key only if it already exists — the
// update path refreshes scorers that queries have built, it never builds
// scorers for datasets no fast-tier query ever touched.
func (t *tieredRuntime) peek(key string) *scorerEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.scorers[key]
}

// scorerFor brings e to the given snapshot and returns the scorer to
// select from plus how many nodes an incremental refresh rescored. Caller
// holds e.mu. The rare query whose snapshot raced behind an update that
// already advanced the shared scorer gets a private scorer for its own
// snapshot (mirroring the rr-store's stale-bypass rule).
func (t *tieredRuntime) scorerFor(e *scorerEntry, evg *evolve.Graph, g *graph.Graph, version uint64) (*tiered.Scorer, int) {
	switch {
	case e.scorer == nil:
		// The point only delays (tests make the build slow); its error
		// has nothing to abort.
		_ = fault.Hit(faultScorerBuild)
		e.scorer = tiered.NewScorer(g)
		e.version = version
		t.scorerBuilds.Inc()
	case e.version == version:
		// Warm and current: the common case, nothing to do.
	case e.version < version:
		if delta, ok := evg.DeltaBetween(e.version, version); ok {
			n := e.scorer.Refresh(g, delta)
			e.version = version
			t.scorerRefreshes.Inc()
			t.scorerRescored.Add(float64(n))
			return e.scorer, n
		}
		// Delta log exhausted: rebuild cold, like an rr-store cold reset.
		e.scorer = tiered.NewScorer(g)
		e.version = version
		t.scorerBuilds.Inc()
	default:
		return tiered.NewScorer(g), 0
	}
	return e.scorer, 0
}

// faultScorerBuild is consulted before a cached scorer's first full
// build. Tests arm it with a sleeping handler to make the build slow
// deterministically.
const faultScorerBuild = "server/scorer-build"

// fastSelect answers one fast-tier selection for key against evg's
// current snapshot, building or refreshing the cached scorer as needed.
// selectMs times Scorer.Select alone: the one-off build or refresh is
// not the per-query cost the planner's fast-tier model predicts.
func (t *tieredRuntime) fastSelect(key string, evg *evolve.Graph, k int, force, exclude []uint32) (seeds []uint32, est float64, version uint64, selectMs float64) {
	g, version := evg.Snapshot()
	e := t.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	sc, _ := t.scorerFor(e, evg, g, version)
	start := time.Now()
	seeds, est = sc.Select(k, force, exclude)
	return seeds, est, version, msSince(start)
}

// scorerBytes sums the fast-tier scorers' own footprint for one dataset
// (scorer keys are "dataset|model") — the capacity ledger's
// tiered_scorers leaf. The graph snapshots the scorers point at are
// owned, and accounted, by the evolve layer (csr_snapshots).
func (t *tieredRuntime) scorerBytes(dataset string) int64 {
	prefix := dataset + "|"
	t.mu.Lock()
	entries := make([]*scorerEntry, 0, len(supportedKinds))
	for key, e := range t.scorers {
		if strings.HasPrefix(key, prefix) {
			entries = append(entries, e)
		}
	}
	t.mu.Unlock()
	var total int64
	for _, e := range entries {
		e.mu.Lock()
		total += e.scorer.MemoryBytes()
		e.mu.Unlock()
	}
	return total
}

// refreshAfterUpdate eagerly advances every warm scorer of the dataset to
// the post-update version, so the first fast-tier query after an update
// pays nothing. Scorers never built stay unbuilt. Returns the total nodes
// rescored across model variants.
func (t *tieredRuntime) refreshAfterUpdate(reg *registry, dataset string) int {
	total := 0
	for _, kind := range supportedKinds {
		key := dataset + "|" + strings.ToLower(kind.String())
		e := t.peek(key)
		if e == nil {
			continue
		}
		evg, err := reg.get(dataset, kind)
		if err != nil {
			continue
		}
		g, version := evg.Snapshot()
		e.mu.Lock()
		_, n := t.scorerFor(e, evg, g, version)
		e.mu.Unlock()
		total += n
	}
	return total
}

// shedError is a load-shedding refusal; writeError maps it to 503 with a
// Retry-After header.
type shedError struct {
	reason     string
	retryAfter time.Duration
}

func (e *shedError) Error() string { return "server: overloaded: " + e.reason }

// defaultRetryAfter is the Retry-After hint on shed responses. Sheds are
// instantaneous capacity signals, so the right retry horizon is "soon":
// one second is the smallest value the header's integer form can carry.
const defaultRetryAfter = time.Second

// msSince is elapsed wall-clock in (fractional) milliseconds.
func msSince(start time.Time) float64 {
	return float64(time.Since(start).Microseconds()) / 1000
}

// answer routes one maximize-shaped query (from POST /v1/maximize or a
// batch item) through the tiered subsystem:
//
//   - Unbudgeted queries (budget_ms absent) wait for admission and run
//     the full RIS pipeline at the requested ε — exactly the pre-tiered
//     behavior, plus the in-flight bound.
//   - Budgeted queries are admitted non-blocking (a full server answers
//     503 + Retry-After immediately: their budget would expire in the
//     queue), then served by the cheapest tier the planner predicts fits:
//     RIS at the finest affordable ladder rung, else the heuristic fast
//     tier, else a shed. An RIS attempt whose budget still expires
//     mid-run falls back to the fast tier when the query accepts
//     heuristic answers; its sampled prefix stays in the rr-store.
//
// min_confidence caps the admissible ε (and, when positive, forbids the
// guarantee-free fast tier); it applies to unbudgeted queries too, by
// tightening the effective ε.
func (s *Server) answer(base context.Context, req MaximizeRequest) (MaximizeResponse, bool, error) {
	if req.BudgetMs < 0 || math.IsNaN(req.BudgetMs) {
		return MaximizeResponse{}, false, fmt.Errorf("%w: budget_ms must be non-negative", errBadRequest)
	}
	if req.MinConfidence < 0 || math.IsNaN(req.MinConfidence) {
		return MaximizeResponse{}, false, fmt.Errorf("%w: min_confidence must be non-negative", errBadRequest)
	}
	if req.Epsilon == 0 {
		req.Epsilon = 0.1
	}
	if req.Ell == 0 {
		req.Ell = 1
	}
	if req.MinConfidence > 0 {
		epsMax := tim.EpsilonForConfidence(req.MinConfidence)
		if epsMax <= 0 {
			return MaximizeResponse{}, false, fmt.Errorf(
				"%w: min_confidence %g is unattainable (the guarantee tops out below 1-1/e ≈ %.4f)",
				errBadRequest, req.MinConfidence, 1-1/math.E)
		}
		if req.Epsilon > epsMax {
			req.Epsilon = epsMax
		}
	}

	ctx, cancel := context.WithTimeout(base, s.cfg.RequestTimeout)
	defer cancel()

	if req.BudgetMs == 0 {
		// Unbudgeted: wait for a slot (a client hang-up or the request
		// timeout aborts the wait), then serve RIS at the requested ε.
		gateSpan := obs.StartSpan(ctx, "gate.wait").Attr("budgeted", false)
		if err := s.tiered.gate.Acquire(ctx); err != nil {
			gateSpan.Attr("aborted", true).End()
			return MaximizeResponse{}, false, err
		}
		gateSpan.End()
		defer s.tiered.gate.Release()
		start := time.Now()
		resp, hit, err := s.doMaximize(ctx, req)
		if err == nil {
			s.tiered.risLatency.Observe(msSince(start))
		}
		return resp, hit, err
	}

	gateSpan := obs.StartSpan(ctx, "gate.wait").Attr("budgeted", true)
	if !s.tiered.gate.TryAcquire() {
		gateSpan.Attr("shed", true).End()
		return MaximizeResponse{}, false, &shedError{reason: "at capacity", retryAfter: defaultRetryAfter}
	}
	gateSpan.End()
	defer s.tiered.gate.Release()

	// Resolve what the planner needs; doMaximize re-resolves the same
	// registry entry, which is a map lookup, not a rebuild.
	model, modelName, err := parseModel(req.Model)
	if err != nil {
		return MaximizeResponse{}, false, err
	}
	evg, err := s.registry.get(req.Dataset, model.Kind())
	if err != nil {
		return MaximizeResponse{}, false, err
	}
	g, _ := evg.Snapshot()
	if req.K < 1 || req.K > g.N() {
		return MaximizeResponse{}, false, fmt.Errorf("%w: k=%d outside [1, %d]", tim.ErrBadOptions, req.K, g.N())
	}
	// The fast tier honors force/exclude; audiences, seeding budgets, and
	// horizon bounds need the RIS pipeline's constrained sampling.
	fastOK := req.Weights == nil && req.Costs == nil && req.Budget == 0 && req.MaxHops == 0
	costKey := req.Dataset + "|" + modelName
	// Promotion penalty: a rung whose collection sits demoted in the
	// spill tier pays a predicted disk read before sampling, and the
	// plan must charge it against the budget instead of gambling. Only
	// sampling-unconstrained queries get the penalty — they use the
	// profile-0 key the spill records are filed under; a profiled key's
	// hash is not known until compilation, and a missed penalty costs
	// accuracy, never correctness.
	var promoteMs func(eps float64) float64
	if req.Weights == nil && req.MaxHops == 0 {
		promoteMs = func(eps float64) float64 {
			if b := s.rr.spilledBytes(rrKeyFor(req.Dataset, modelName, eps, 0)); b > 0 {
				return s.tiered.planner.PredictPromotionMs(costKey, b)
			}
			return 0
		}
	}
	planSpan := obs.StartSpan(ctx, "plan").Attr("budget_ms", req.BudgetMs)
	d := s.tiered.planner.PlanWithPromotion(costKey, g.N(), req.K, req.Epsilon, req.Ell, req.BudgetMs, req.MinConfidence, fastOK, promoteMs)
	planSpan.Attr("tier", d.Tier.String()).
		Attr("epsilon", d.Epsilon).
		Attr("predicted_ms", d.PredictedMs).
		End()

	switch d.Tier {
	case tiered.TierShed:
		s.tiered.shedInfeasible.Inc()
		return MaximizeResponse{}, false, &shedError{
			reason:     fmt.Sprintf("no tier fits budget_ms=%g with min_confidence=%g", req.BudgetMs, req.MinConfidence),
			retryAfter: defaultRetryAfter,
		}
	case tiered.TierFast:
		return s.serveFast(ctx, req, costKey, evg)
	}

	// TierRIS at the planned rung, under the budget's own deadline.
	s.tiered.escalations.Inc()
	if m := requestMeta(ctx); m != nil {
		m.escalated.Store(true)
	}
	risReq := req
	risReq.Epsilon = d.Epsilon
	// Guard the float→Duration conversion: a budget past the request
	// timeout (or so large the conversion overflows) adds no deadline of
	// its own.
	budgetDur := time.Duration(req.BudgetMs * float64(time.Millisecond))
	if budgetDur <= 0 || budgetDur > s.cfg.RequestTimeout {
		budgetDur = s.cfg.RequestTimeout
	}
	budgetCtx, cancelBudget := context.WithTimeout(ctx, budgetDur)
	defer cancelBudget()
	start := time.Now()
	resp, hit, err := s.doMaximize(budgetCtx, risReq)
	if err == nil {
		s.tiered.risLatency.Observe(msSince(start))
		return resp, hit, nil
	}
	if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil && fastOK && req.MinConfidence <= 0 {
		// The prediction was optimistic and the budget fired mid-run. The
		// flushed RR prefix stays in the store (partial-keep extension), so
		// the miss still ratchets the collection; answer heuristically.
		s.tiered.deadlineFallbacks.Inc()
		if m := requestMeta(ctx); m != nil {
			m.fellBack.Store(true)
		}
		return s.serveFast(ctx, req, costKey, evg)
	}
	return MaximizeResponse{}, false, err
}

// serveFast answers req from the fast tier and feeds the latency
// observations. The tier histogram records what the client waited,
// scorer build included; the planner's cost model gets the selection
// time only — seeding it with a one-off build would make it shed every
// later budgeted query the warm scorer answers in time.
func (s *Server) serveFast(ctx context.Context, req MaximizeRequest, costKey string, evg *evolve.Graph) (MaximizeResponse, bool, error) {
	span := obs.StartSpan(ctx, "fast.select").Attr("k", int64(req.K))
	start := time.Now()
	seeds, est, version, selectMs := s.tiered.fastSelect(costKey, evg, req.K, req.Force, req.Exclude)
	ms := msSince(start)
	span.End()
	s.tiered.fastLatency.Observe(ms)
	s.tiered.planner.ObserveFast(costKey, selectMs)
	return MaximizeResponse{
		Seeds:          seeds,
		SpreadEstimate: est,
		GraphVersion:   version,
		Tier:           tiered.TierFast.String(),
		// Epsilon and Confidence stay zero: heuristic answers carry no
		// approximation guarantee.
	}, false, nil
}

// tieredStats is the /v1/stats snapshot of the tiered subsystem.
type tieredStats struct {
	Gate      tiered.GateStats `json:"gate"`
	EpsLadder []float64        `json:"eps_ladder"`
	RIS       tierLatency      `json:"ris"`
	Fast      tierLatency      `json:"fast"`
	// Escalated counts budgeted queries routed to RIS; ShedInfeasible
	// admitted-but-unservable sheds (the gate's own Shed counter covers
	// at-capacity rejections); DeadlineFallbacks budget misses answered
	// heuristically.
	Escalated         int64 `json:"escalated"`
	ShedInfeasible    int64 `json:"shed_infeasible"`
	DeadlineFallbacks int64 `json:"deadline_fallbacks"`
	// Scorer maintenance counters: full builds, incremental refreshes,
	// and total nodes rescored by refreshes.
	ScorerBuilds        int64 `json:"scorer_builds"`
	ScorerRefreshes     int64 `json:"scorer_refreshes"`
	ScorerNodesRescored int64 `json:"scorer_nodes_rescored"`
}

// tierLatency is one tier's answer count and latency quantiles over the
// process lifetime, read from its tier histogram: each quantile is the
// upper bound of the bucket holding it (obs.HistogramSnapshot.Quantile).
type tierLatency struct {
	Served int64   `json:"served"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
}

func tierLatencyOf(h *obs.Histogram) tierLatency {
	snap := h.Snapshot()
	return tierLatency{Served: snap.Count, P50Ms: snap.Quantile(0.50), P99Ms: snap.Quantile(0.99)}
}

func (t *tieredRuntime) stats() tieredStats {
	return tieredStats{
		Gate:                t.gate.Stats(),
		EpsLadder:           t.planner.Ladder(),
		RIS:                 tierLatencyOf(t.risLatency),
		Fast:                tierLatencyOf(t.fastLatency),
		Escalated:           t.escalations.Int(),
		ShedInfeasible:      t.shedInfeasible.Int(),
		DeadlineFallbacks:   t.deadlineFallbacks.Int(),
		ScorerBuilds:        t.scorerBuilds.Int(),
		ScorerRefreshes:     t.scorerRefreshes.Int(),
		ScorerNodesRescored: t.scorerRescored.Int(),
	}
}
