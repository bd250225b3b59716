package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/server"
)

const kindUpdate = "update"

// request is one request of a serve workload, encoded before any timing
// starts.
type request struct {
	kind    string // "query", "query-exclude" or "update"
	path    string
	body    []byte
	due     time.Duration // from the start of the open-loop phase
	k       int
	exclude []uint32
}

// serveInputs are a serve workload's generated inputs: the warm-up that
// setup sends in order, then the open-loop requests.
type serveInputs struct {
	dataset string
	n       int
	warmup  []request
	reqs    []request
	// baseVersion is the dataset version after the warm-up.
	baseVersion uint64
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always encode
	}
	return raw
}

func (b *bench) serveInputs() (*serveInputs, error) {
	p := b.p
	g, err := p.Dataset.generate()
	if err != nil {
		return nil, err
	}
	in := &serveInputs{dataset: p.Dataset.Profile, n: g.N()}
	rnd := rand.New(rand.NewPCG(b.seed, inputStream))
	slots := requestCount(p.RequestsPerSecond, b.seconds)
	due := func(i int) time.Duration {
		return time.Duration(float64(i) / p.RequestsPerSecond * float64(time.Second))
	}

	if b.name == "serve-live" {
		live := newEdgeSet(g)
		for i := 1; i <= p.WarmupQueries; i++ {
			in.warmup = append(in.warmup, b.liveQuery(in, uint64(i)))
		}
		fixed := rand.New(rand.NewPCG(warmupSeed, inputStream))
		in.warmup = append(in.warmup, b.liveUpdate(live, in, fixed), b.liveQuery(in, uint64(p.WarmupQueries+1)))
		in.baseVersion = 1
		for i := 0; i < slots; i++ {
			var q request
			if rnd.Float64() < p.UpdateShare {
				q = b.liveUpdate(live, in, rnd)
			} else {
				q = b.liveQuery(in, rnd.Uint64())
			}
			q.due = due(i)
			in.reqs = append(in.reqs, q)
		}
		return in, nil
	}

	pool := topDegree(g, p.ExcludePool)
	in.warmup = append(in.warmup, b.lightQuery(in, p.K[len(p.K)-1], nil))
	for i := 0; i < slots; i++ {
		k := p.K[rnd.IntN(len(p.K))]
		var exclude []uint32
		if rnd.Float64() < p.ExcludeShare {
			for _, j := range rnd.Perm(len(pool))[:1+rnd.IntN(p.ExcludeMax)] {
				exclude = append(exclude, pool[j])
			}
		}
		q := b.lightQuery(in, k, exclude)
		q.due = due(i)
		in.reqs = append(in.reqs, q)
	}
	return in, nil
}

func (b *bench) liveQuery(in *serveInputs, seed uint64) request {
	k := b.p.K[0]
	body := mustJSON(server.MaximizeRequest{Dataset: in.dataset, K: k, Epsilon: b.p.Epsilon, Seed: &seed})
	return request{kind: "query", path: "/v1/maximize", body: body, k: k}
}

func (b *bench) liveUpdate(live *edgeSet, in *serveInputs, rnd *rand.Rand) request {
	body := mustJSON(live.batch(in.dataset, b.p.UpdateDeletes, b.p.UpdateInserts, rnd))
	return request{kind: kindUpdate, path: "/v1/update", body: body}
}

func (b *bench) lightQuery(in *serveInputs, k int, exclude []uint32) request {
	kind := "query"
	if len(exclude) > 0 {
		kind = "query-exclude"
	}
	body := mustJSON(server.MaximizeRequest{Dataset: in.dataset, K: k, BudgetMs: b.p.BudgetMs, Exclude: exclude})
	return request{kind: kind, path: "/v1/maximize", body: body, k: k, exclude: exclude}
}

// topDegree returns the n nodes of highest out-degree (ties by id).
func topDegree(g *graph.Graph, n int) []uint32 {
	nodes := make([]uint32, g.N())
	for i := range nodes {
		nodes[i] = uint32(i)
	}
	slices.SortFunc(nodes, func(a, b uint32) int {
		return cmp.Or(cmp.Compare(g.OutDegree(b), g.OutDegree(a)), cmp.Compare(a, b))
	})
	return nodes[:min(n, len(nodes))]
}

// edgeSet follows the live edges of the serve-live dataset while the
// update batches are generated, so every delete names a live edge and
// every insert an absent one, and no batch fails.
type edgeSet struct {
	n     int
	edges []server.UpdateEdge // one entry per live occurrence
	count map[server.UpdateEdge]int
}

func newEdgeSet(g *graph.Graph) *edgeSet {
	s := &edgeSet{n: g.N(), count: make(map[server.UpdateEdge]int, g.M())}
	for _, e := range g.Edges() {
		ue := server.UpdateEdge{From: e.From, To: e.To}
		s.edges = append(s.edges, ue)
		s.count[ue]++
	}
	return s
}

// batch draws one update batch and applies it to the set: deletes of
// distinct live edges, then inserts of distinct absent non-loop edges.
func (s *edgeSet) batch(dataset string, deletes, inserts int, rnd *rand.Rand) server.UpdateRequest {
	req := server.UpdateRequest{Dataset: dataset}
	picked := make(map[server.UpdateEdge]bool, deletes+inserts)
	for len(req.Delete) < deletes {
		i := rnd.IntN(len(s.edges))
		e := s.edges[i]
		if picked[e] {
			continue
		}
		picked[e] = true
		req.Delete = append(req.Delete, e)
		s.edges[i] = s.edges[len(s.edges)-1]
		s.edges = s.edges[:len(s.edges)-1]
		s.count[e]--
	}
	for len(req.Insert) < inserts {
		e := server.UpdateEdge{From: uint32(rnd.IntN(s.n)), To: uint32(rnd.IntN(s.n))}
		if e.From == e.To || picked[e] || s.count[e] > 0 {
			continue
		}
		picked[e] = true
		req.Insert = append(req.Insert, e)
		s.edges = append(s.edges, e)
		s.count[e]++
	}
	return req
}

func (b *bench) newServer(in *serveInputs, traceRing int) (*server.Server, error) {
	return server.New(server.Config{
		Datasets:    []server.DatasetSpec{{Name: in.dataset, Source: b.p.Dataset.source(), Seed: b.p.Dataset.Seed}},
		Workers:     b.p.Workers,
		MaxInFlight: b.p.MaxInFlight,
		TraceRing:   traceRing,
		Seed:        b.cfg.ServerSeed,
	})
}

// serveSetup builds a server and sends the warm-up in order; the first
// request builds the dataset.
func (b *bench) serveSetup(r *run, in *serveInputs, traceRing int, tag string) (*server.Server, error) {
	t0 := time.Now()
	srv, err := b.newServer(in, traceRing)
	if err != nil {
		return nil, err
	}
	r.spans.add(tag+"-setup", "setup.server", t0, time.Now(), nil)
	for i, q := range in.warmup {
		id := fmt.Sprintf("%s-warmup-%d", tag, i)
		t := time.Now()
		status, body := post(srv, q, id)
		r.spans.add(id, "setup.warmup."+q.kind, t, time.Now(), nil)
		if status != http.StatusOK {
			return nil, fmt.Errorf("warm-up request %d (%s): status %d: %s", i, q.kind, status, body)
		}
	}
	return srv, nil
}

func post(srv *server.Server, q request, id string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, q.path, bytes.NewReader(q.body))
	req.Header.Set("X-Request-ID", id)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func getJSON(srv *server.Server, path string, v any) error {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, rec.Code, rec.Body.Bytes())
	}
	return json.Unmarshal(rec.Body.Bytes(), v)
}

func staleBypasses(srv *server.Server) (int64, error) {
	var st struct {
		RRCache struct {
			StaleBypasses int64 `json:"stale_bypasses"`
		} `json:"rr_cache"`
	}
	err := getJSON(srv, "/v1/stats", &st)
	return st.RRCache.StaleBypasses, err
}

// outcome is one request's record from an open-loop phase. Times are from
// the phase start: the pacer dispatched the request, its goroutine got a
// processor and sent it, and ServeHTTP returned. acked is how many updates
// had been acknowledged when a query was sent.
type outcome struct {
	dispatched, sent, done time.Duration
	status                 int
	body                   []byte
	acked                  int64
}

type openPhase struct {
	start time.Time
	out   []outcome
	stats phaseStats
}

// openLoop sends reqs on their schedule regardless of completions: each
// query on its own goroutine when due, each update in order on one
// goroutine. Responses are decoded only after the phase.
func (b *bench) openLoop(srv *server.Server, reqs []request, tag string) *openPhase {
	out := make([]outcome, len(reqs))
	var (
		wg    sync.WaitGroup
		acked atomic.Int64
	)
	// Sized to the phase so the pacer never blocks on a slow update.
	updates := make(chan int, len(reqs))
	m := startMeter()
	start := time.Now()
	fire := func(i int) {
		req := httptest.NewRequest(http.MethodPost, reqs[i].path, bytes.NewReader(reqs[i].body))
		req.Header.Set("X-Request-ID", tag+"-"+strconv.Itoa(i))
		rec := httptest.NewRecorder()
		out[i].sent = time.Since(start)
		srv.ServeHTTP(rec, req)
		out[i].done = time.Since(start)
		out[i].status, out[i].body = rec.Code, rec.Body.Bytes()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range updates {
			fire(i)
			if out[i].status == http.StatusOK {
				acked.Add(1)
			}
		}
	}()
	onPacedThread(func(sleepUntil func(time.Time)) {
		for i := range reqs {
			sleepUntil(start.Add(reqs[i].due))
			out[i].dispatched = time.Since(start)
			if reqs[i].kind == kindUpdate {
				updates <- i
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				out[i].acked = acked.Load()
				fire(i)
			}()
		}
	})
	close(updates)
	wg.Wait()
	return &openPhase{start: start, out: out, stats: m.finish()}
}

// checked is an open-loop phase after every response has been decoded and
// checked. ok and resps are indexed by request.
type checked struct {
	ok        []bool
	resps     []server.MaximizeResponse
	answers   [][]uint32 // queries only, in request order
	queryLat  []float64  // ms from due to return
	lateness  []float64  // ms from due to dispatch: how late the generator ran
	waits     []float64  // ms from dispatch to send: waiting for a processor
	kinds     map[string]*kindStats
	repaired  int // queries that repaired the shared collection
	completed int
}

type kindStats struct {
	attempted, failed int
	lat               []float64
}

// check decodes and checks every response; a non-200 status or a wrong
// answer fails the request.
func (b *bench) check(r *run, in *serveInputs, reqs []request, ph *openPhase) *checked {
	c := &checked{ok: make([]bool, len(reqs)), resps: make([]server.MaximizeResponse, len(reqs)), kinds: map[string]*kindStats{}}
	version := in.baseVersion
	for i, q := range reqs {
		o := ph.out[i]
		ks := c.kinds[q.kind]
		if ks == nil {
			ks = &kindStats{}
			c.kinds[q.kind] = ks
		}
		r.attempted++
		ks.attempted++
		c.lateness = append(c.lateness, ms(o.dispatched-q.due))
		c.waits = append(c.waits, ms(o.sent-o.dispatched))
		var msg string
		switch {
		case o.status != http.StatusOK:
			msg = fmt.Sprintf("status %d: %s", o.status, bytes.TrimSpace(o.body))
		case q.kind == kindUpdate:
			msg = b.checkUpdate(o.body, &version)
		default:
			msg = b.checkAnswer(o.body, &c.resps[i], q, in.n, in.baseVersion+uint64(o.acked))
		}
		if q.kind != kindUpdate {
			c.answers = append(c.answers, c.resps[i].Seeds)
		}
		if msg != "" {
			r.failed++
			ks.failed++
			r.problem("%s %d: %s", q.kind, i, msg)
			continue
		}
		c.ok[i] = true
		c.completed++
		lat := ms(o.done - q.due)
		ks.lat = append(ks.lat, lat)
		if q.kind != kindUpdate {
			c.queryLat = append(c.queryLat, lat)
			if c.resps[i].RRSetsRepaired > 0 {
				c.repaired++
			}
		}
	}
	return c
}

// checkUpdate checks an update acknowledgement: the whole batch applied and
// the dataset version advanced by one.
func (b *bench) checkUpdate(body []byte, version *uint64) string {
	var resp server.UpdateResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return err.Error()
	}
	if resp.Version != *version+1 || resp.Deleted != b.p.UpdateDeletes || resp.Inserted != b.p.UpdateInserts {
		return fmt.Sprintf("version %d after %d, %d deleted, %d inserted", resp.Version, *version, resp.Deleted, resp.Inserted)
	}
	*version++
	return ""
}

// checkAnswer decodes a query's answer into resp and checks it: k distinct
// in-range seeds outside the exclude list, from the fast tier on
// serve-light; on serve-live from RIS at the requested ε, at a graph
// version no older than minVersion, the last one acknowledged before the
// query was sent.
func (b *bench) checkAnswer(body []byte, resp *server.MaximizeResponse, q request, n int, minVersion uint64) string {
	if err := json.Unmarshal(body, resp); err != nil {
		return err.Error()
	}
	if msg := checkSeeds(resp.Seeds, q.k, n, q.exclude); msg != "" {
		return msg
	}
	switch {
	case b.name == "serve-light" && resp.Tier != "fast":
		return fmt.Sprintf("tier %q, want fast", resp.Tier)
	case b.name == "serve-light":
		return ""
	case resp.Tier != "ris":
		return fmt.Sprintf("tier %q, want ris", resp.Tier)
	case resp.Epsilon != b.p.Epsilon:
		return fmt.Sprintf("epsilon %g, want %g", resp.Epsilon, b.p.Epsilon)
	case resp.GraphVersion < minVersion:
		return fmt.Sprintf("graph_version %d older than %d, acknowledged before the query was sent", resp.GraphVersion, minVersion)
	}
	return ""
}

// report prints the per-kind accounting and the generator's lateness.
func (c *checked) report(r *run, label string) {
	for _, kind := range []string{"query", "query-exclude", kindUpdate} {
		if ks := c.kinds[kind]; ks != nil {
			r.reportf("%s%s: attempted=%d failed=%d latency %s", label, kind, ks.attempted, ks.failed, latencyNote(ks.lat))
		}
	}
	if c.kinds[kindUpdate] != nil {
		r.reportf("%squeries that repaired the collection: %.1f%% (%d of %d)",
			label, 100*per(float64(c.repaired), float64(len(c.queryLat))), c.repaired, len(c.queryLat))
	}
	r.reportf("%sgenerator ran late by p50=%.3fms p99=%.3fms max=%.3fms; requests then waited for a processor p50=%.3fms p99=%.3fms (n=%d)", label,
		percentile(c.lateness, 50), percentile(c.lateness, 99), percentile(c.lateness, 100),
		percentile(c.waits, 50), percentile(c.waits, 99), len(c.lateness))
}

func (b *bench) serve() (*run, error) {
	p := b.p
	r := &run{}
	in, err := b.serveInputs()
	if err != nil {
		return nil, err
	}
	if !b.traced {
		var (
			ph    *openPhase
			c     *checked
			stale int64
		)
		setupS, err := setupAround(p.SetupReps, func() (*server.Server, error) { return b.serveSetup(r, in, -1, "t") },
			func(srv *server.Server) (err error) {
				ph = b.openLoop(srv, in.reqs, "t")
				c = b.check(r, in, in.reqs, ph)
				stale, err = staleBypasses(srv)
				return err
			})
		if err != nil {
			return nil, err
		}
		b.checkHash(r, c.answers)
		r.metrics = map[string]float64{
			"setup_s":          setupS,
			"latency_p50_ms":   percentile(c.queryLat, 50),
			"latency_p90_ms":   percentile(c.queryLat, 90),
			"cpu_ms_per_req":   per(ms(ph.stats.cpu), float64(c.completed)),
			"live_heap_p90_mb": percentile(ph.stats.liveMiB, 90),
		}
		c.report(r, "")
		r.reportf("%s", ph.stats.heapNote())
		r.reportf("offered %.1f requests/s for %.2fs; cpu %.2f cores busy; stale bypasses %d; setup_s is the median of %d reps",
			p.RequestsPerSecond, ph.stats.wall.Seconds(), ph.stats.cpu.Seconds()/ph.stats.wall.Seconds(), stale, p.SetupReps)
		return r, nil
	}

	// Traced run: the first half of the requests against an untraced
	// server, then the same requests against a fresh server whose trace
	// ring holds every request.
	r.spans = newSpanLog()
	half := in.reqs[:max(1, len(in.reqs)/2)]
	srvA, err := b.serveSetup(r, in, -1, "a")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	phA := b.openLoop(srvA, half, "a")
	cA := b.check(r, in, half, phA)
	stale, err := staleBypasses(srvA)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	srvB, err := b.serveSetup(r, in, len(in.warmup)+len(half)+1, "b")
	if err != nil {
		return nil, err
	}
	runtime.GC()
	phB := b.openLoop(srvB, half, "b")
	cB := b.check(r, in, half, phB)
	b.checkHash(r, cA.answers)
	if b.name == "serve-light" && !slices.EqualFunc(cA.answers, cB.answers, slices.Equal) {
		r.problem("traced answers differ from untraced ones")
	}

	l := newLayers()
	for i, q := range half {
		o := phB.out[i]
		id := "b-" + strconv.Itoa(i)
		r.spans.add(id, "request."+q.kind, phB.start.Add(o.sent), phB.start.Add(o.done),
			map[string]any{"due_us": q.due.Microseconds(), "status": o.status})
		if !cB.ok[i] {
			continue
		}
		var snap obs.TraceSnapshot
		if err := getJSON(srvB, "/v1/trace/"+id, &snap); err != nil {
			r.problem("trace %s: %v", id, err)
			continue
		}
		r.spans.traces = append(r.spans.traces, snap)
		bd := analyze(snap)
		if q.kind == kindUpdate {
			l.updates++
			l.updateApplyMs += bd.total["update.apply"]
			continue
		}
		resp := cB.resps[i]
		l.addQuery(bd)
		l.theta += float64(resp.Theta)
		l.reused += float64(resp.RRSetsReused)
		l.repaired += float64(resp.RRSetsRepaired)
		if resp.Tier == "fast" {
			l.fast++
		}
		if bd.theta >= 0 && bd.theta != float64(resp.Theta) {
			r.problem("query %s: select span theta %.0f, answer theta %d", id, bd.theta, resp.Theta)
		}
		call := ms(o.done - o.sent)
		l.untracedMs += resp.ElapsedMs - bd.topMs
		l.respondMs += call - resp.ElapsedMs
		l.coveredMs += bd.allMs
		l.clientMs += call
	}
	r.metrics = l.metrics()
	r.metrics["diffusion.sampler_pool_hit_ratio"] = phA.stats.samplerHitRatio
	r.metrics["maxcover.scratch_hit_ratio"] = phA.stats.scratchHitRatio
	r.metrics["server.stale_bypasses"] = float64(stale)
	r.metrics["server.alloc_kb_per_req"] = per(float64(phA.stats.allocBytes)/1024, float64(cA.completed))
	r.metrics["tim.alloc_kb_per_query"] = 0
	r.metrics["obs.trace_overhead_pct"] = overheadPct(cA.queryLat, cB.queryLat)
	cA.report(r, "untraced ")
	cB.report(r, "traced ")
	r.reportf("attribution: server spans cover %.2f%% of ServeHTTP time over %d queries; untraced_ms %.4f and respond_ms %.4f per query hold the rest",
		100*per(l.coveredMs, l.clientMs), int(l.queries), r.metrics["server.untraced_ms"], r.metrics["server.respond_ms"])
	return r, nil
}
