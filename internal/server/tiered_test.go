package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/stats"
	"repro/internal/tim"
)

// newTieredTestServer builds a server with an explicit in-flight bound
// for the admission tests; everything else matches newTestServer.
func newTieredTestServer(t testing.TB, maxInFlight int) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{
		Datasets: []DatasetSpec{
			{Name: "ba", Source: "ba:300:3", Seed: 7},
		},
		CacheSize:      32,
		RequestTimeout: time.Minute,
		Workers:        2,
		Seed:           1,
		MaxInFlight:    maxInFlight,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestSLOUnbudgetedReportsTier: queries without a budget run RIS at the
// requested ε and say so.
func TestSLOUnbudgetedReportsTier(t *testing.T) {
	_, ts := newTieredTestServer(t, 0)
	var resp MaximizeResponse
	status, body := postJSON(t, ts.URL+"/v1/maximize", MaximizeRequest{Dataset: "ba", K: 5, Epsilon: 0.3}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if resp.Tier != "ris" {
		t.Fatalf("tier = %q, want ris", resp.Tier)
	}
	if resp.Epsilon != 0.3 {
		t.Fatalf("epsilon = %g, want the requested 0.3", resp.Epsilon)
	}
	if want := tim.ApproxFactor(0.3); resp.Confidence != want {
		t.Fatalf("confidence = %g, want %g", resp.Confidence, want)
	}
}

// TestSLOColdBudgetServedFast: with no RIS observation to calibrate the
// planner, a budgeted query must not gamble on RIS — it is served by the
// fast tier, within (a very generous reading of) its budget.
func TestSLOColdBudgetServedFast(t *testing.T) {
	srv, ts := newTieredTestServer(t, 0)
	var resp MaximizeResponse
	status, body := postJSON(t, ts.URL+"/v1/maximize", MaximizeRequest{Dataset: "ba", K: 5, BudgetMs: 5}, &resp)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if resp.Tier != "fast" {
		t.Fatalf("tier = %q, want fast (cold planner)", resp.Tier)
	}
	if resp.Epsilon != 0 || resp.Confidence != 0 {
		t.Fatalf("heuristic answer claims a guarantee: eps=%g conf=%g", resp.Epsilon, resp.Confidence)
	}
	if len(resp.Seeds) != 5 {
		t.Fatalf("got %d seeds", len(resp.Seeds))
	}
	// The response's own clock: the 5ms budget plus CI-grade grace.
	if resp.ElapsedMs > 100 {
		t.Fatalf("fast tier took %.1fms against a 5ms budget", resp.ElapsedMs)
	}
	st := srv.tiered.stats()
	if st.Fast.Served != 1 {
		t.Fatalf("fast served = %d, want 1", st.Fast.Served)
	}
}

// TestFastTierCostExcludesScorerBuild: the planner's fast-tier cost model
// learns from Scorer.Select alone. The first budgeted query pays a slow
// scorer build; a second query whose budget is far below that build but
// far above a warm select must still be served fast, not shed.
func TestFastTierCostExcludesScorerBuild(t *testing.T) {
	t.Cleanup(fault.Reset)
	const buildDelay = 300 * time.Millisecond
	fault.Set(faultScorerBuild, func() error {
		time.Sleep(buildDelay)
		return nil
	})
	_, ts := newTieredTestServer(t, 0)

	var first MaximizeResponse
	status, body := postJSON(t, ts.URL+"/v1/maximize", MaximizeRequest{Dataset: "ba", K: 5, BudgetMs: 1000}, &first)
	if status != http.StatusOK || first.Tier != "fast" {
		t.Fatalf("first query: %d tier %q: %s", status, first.Tier, body)
	}
	if first.ElapsedMs < float64(buildDelay.Milliseconds()) {
		t.Fatalf("first query took %.1fms: the scorer build was not slowed", first.ElapsedMs)
	}

	var second MaximizeResponse
	status, body = postJSON(t, ts.URL+"/v1/maximize", MaximizeRequest{Dataset: "ba", K: 4, BudgetMs: 50}, &second)
	if status != http.StatusOK {
		t.Fatalf("warm fast-eligible query shed against a 50ms budget: %d %s", status, body)
	}
	if second.Tier != "fast" {
		t.Fatalf("tier = %q, want fast", second.Tier)
	}
}

// TestSLOEscalationBitIdentity is the soundness contract: a budgeted
// query escalated to ladder rung ε returns bit-identical seeds to an
// unbudgeted query at that same ε on an identically configured server.
func TestSLOEscalationBitIdentity(t *testing.T) {
	srv, ts := newTieredTestServer(t, 0)

	// Warm the cost model at ε=0.1, then overwrite it with a synthetic
	// observation that prices ε=0.1 out of any reasonable budget while
	// leaving a coarse rung affordable — pinning the rung the planner must
	// pick regardless of machine speed.
	var warm MaximizeResponse
	if status, body := postJSON(t, ts.URL+"/v1/maximize", MaximizeRequest{Dataset: "ba", K: 5}, &warm); status != http.StatusOK {
		t.Fatalf("warm-up: %d %s", status, body)
	}
	n := 300
	const fakeEps01Ms = 100_000 // pretend ε=0.1 costs 100s on this dataset
	for i := 0; i < 20; i++ {   // EWMA-converge the synthetic cost
		srv.tiered.planner.ObserveRIS("ba|ic", n, 5, 0.1, 1, fakeEps01Ms)
	}
	cost := func(eps float64) float64 {
		return fakeEps01Ms * stats.Lambda(n, 5, eps, 1) / stats.Lambda(n, 5, 0.1, 1)
	}
	// A budget fitting ε=0.5 but not ε=0.3 (both with the planner's 0.9
	// safety factor). The real query takes milliseconds, far inside it.
	budget := (cost(0.5)/0.9 + cost(0.3)*0.9) / 2

	var budgeted MaximizeResponse
	status, body := postJSON(t, ts.URL+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 5, Epsilon: 0.1, BudgetMs: budget}, &budgeted)
	if status != http.StatusOK {
		t.Fatalf("budgeted: %d %s", status, body)
	}
	if budgeted.Tier != "ris" {
		t.Fatalf("tier = %q, want ris (budget %.1fms, cost(0.5)=%.1f cost(0.3)=%.1f)",
			budgeted.Tier, budget, cost(0.5), cost(0.3))
	}
	if budgeted.Epsilon != 0.5 {
		t.Fatalf("achieved epsilon = %g, want ladder rung 0.5", budgeted.Epsilon)
	}
	if want := tim.ApproxFactor(0.5); budgeted.Confidence != want {
		t.Fatalf("confidence = %g, want %g", budgeted.Confidence, want)
	}

	// Fresh identically-seeded server, unbudgeted query at the achieved ε:
	// the seeds must match bit for bit.
	_, ts2 := newTieredTestServer(t, 0)
	var unbudgeted MaximizeResponse
	if status, body := postJSON(t, ts2.URL+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 5, Epsilon: 0.5}, &unbudgeted); status != http.StatusOK {
		t.Fatalf("unbudgeted: %d %s", status, body)
	}
	if len(budgeted.Seeds) != len(unbudgeted.Seeds) {
		t.Fatalf("seed counts differ: %v vs %v", budgeted.Seeds, unbudgeted.Seeds)
	}
	for i := range budgeted.Seeds {
		if budgeted.Seeds[i] != unbudgeted.Seeds[i] {
			t.Fatalf("escalated answer diverged: %v vs %v", budgeted.Seeds, unbudgeted.Seeds)
		}
	}
	if budgeted.Theta != unbudgeted.Theta {
		t.Fatalf("theta differs: %d vs %d", budgeted.Theta, unbudgeted.Theta)
	}
}

// TestSLOMinConfidence covers the confidence floor: unattainable floors
// are 400s, and a floor the budget cannot afford is a 503 shed with
// Retry-After — never a silent heuristic answer.
func TestSLOMinConfidence(t *testing.T) {
	_, ts := newTieredTestServer(t, 0)

	status, body := postJSON(t, ts.URL+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 5, MinConfidence: 0.99}, nil)
	if status != http.StatusBadRequest {
		t.Fatalf("unattainable min_confidence: %d %s", status, body)
	}

	// Cold planner + budget + confidence floor: RIS is unpredicted, the
	// fast tier is forbidden — the query sheds.
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/maximize",
		jsonBody(t, MaximizeRequest{Dataset: "ba", K: 5, BudgetMs: 50, MinConfidence: 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("infeasible SLO: status %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response missing Retry-After")
	}

	// An unbudgeted query with a floor tightens ε instead: requested 0.5
	// but floor demands ε ≤ EpsilonForConfidence(0.4).
	var ans MaximizeResponse
	if status, body := postJSON(t, ts.URL+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 5, Epsilon: 0.5, MinConfidence: 0.4}, &ans); status != http.StatusOK {
		t.Fatalf("floored unbudgeted: %d %s", status, body)
	}
	if maxEps := tim.EpsilonForConfidence(0.4); ans.Epsilon > maxEps+1e-12 {
		t.Fatalf("achieved ε=%g exceeds the floor's cap %g", ans.Epsilon, maxEps)
	}
	if ans.Confidence < 0.4 {
		t.Fatalf("confidence %g below the requested floor", ans.Confidence)
	}
}

// TestSLOBatchThreading: budget fields thread through batch items, and
// each item reports its own achieved tier.
func TestSLOBatchThreading(t *testing.T) {
	_, ts := newTieredTestServer(t, 0)
	var resp BatchResponse
	status, body := postJSON(t, ts.URL+"/v1/query/batch", BatchRequest{Queries: []MaximizeRequest{
		{Dataset: "ba", K: 3}, // unbudgeted → ris
		// A sub-microsecond budget no RIS rung can fit, cold or warm
		// (batch items race, so item 0 may calibrate the planner first).
		{Dataset: "ba", K: 3, BudgetMs: 0.0001},
		{Dataset: "ba", K: 3, BudgetMs: -1}, // invalid
	}}, &resp)
	if status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	if resp.Results[0].Result == nil || resp.Results[0].Result.Tier != "ris" {
		t.Fatalf("item 0 = %+v", resp.Results[0])
	}
	if resp.Results[1].Result == nil || resp.Results[1].Result.Tier != "fast" {
		t.Fatalf("item 1 = %+v", resp.Results[1])
	}
	if resp.Results[2].Error == "" {
		t.Fatalf("item 2 accepted a negative budget: %+v", resp.Results[2])
	}
}

// TestAdmissionSheddingExact: with a 1-slot gate held open, every
// budgeted request is shed with 503 + Retry-After and counted exactly
// once; no request both sheds and answers. Run with -race.
func TestAdmissionSheddingExact(t *testing.T) {
	srv, ts := newTieredTestServer(t, 1)

	// Occupy the only slot.
	if !srv.tiered.gate.TryAcquire() {
		t.Fatal("fresh gate full")
	}

	const parallel = 12
	codes := make([]int, parallel)
	retryAfter := make([]string, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/maximize", "application/json",
				jsonBody(t, MaximizeRequest{Dataset: "ba", K: 3, BudgetMs: 5}))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			retryAfter[i] = resp.Header.Get("Retry-After")
		}(i)
	}
	wg.Wait()

	for i, c := range codes {
		if c != http.StatusServiceUnavailable {
			t.Fatalf("request %d: status %d with the gate held", i, c)
		}
		if retryAfter[i] == "" {
			t.Fatalf("request %d: shed without Retry-After", i)
		}
	}
	if st := srv.tiered.gate.Stats(); st.Shed != parallel {
		t.Fatalf("gate shed = %d, want exactly %d", st.Shed, parallel)
	}

	// Release the slot: budgeted traffic flows again, and the shed count
	// does not move.
	srv.tiered.gate.Release()
	var ok MaximizeResponse
	if status, body := postJSON(t, ts.URL+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 3, BudgetMs: 5}, &ok); status != http.StatusOK {
		t.Fatalf("after release: %d %s", status, body)
	}
	if ok.Tier == "" {
		t.Fatal("served answer missing tier")
	}
	st := srv.tiered.gate.Stats()
	if st.Shed != parallel {
		t.Fatalf("shed moved to %d after successful serve", st.Shed)
	}
	if st.InFlight != 0 {
		t.Fatalf("in_flight = %d at rest", st.InFlight)
	}
}

// TestAdmissionConcurrentMix: many concurrent budgeted requests against a
// 1-slot gate; every response is either a served 200 (with a tier) or a
// shed 503 (with Retry-After), and the gate's counters account for each
// request exactly once. Run with -race.
func TestAdmissionConcurrentMix(t *testing.T) {
	srv, ts := newTieredTestServer(t, 1)

	const parallel = 24
	var served, shed int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/maximize", "application/json",
				jsonBody(t, MaximizeRequest{Dataset: "ba", K: 3, BudgetMs: 50}))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				served++
			case http.StatusServiceUnavailable:
				if resp.Header.Get("Retry-After") == "" {
					t.Error("shed without Retry-After")
				}
				shed++
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()

	if served+shed != parallel {
		t.Fatalf("responses lost: served=%d shed=%d", served, shed)
	}
	if served == 0 {
		t.Fatal("nothing served")
	}
	st := srv.tiered.gate.Stats()
	if st.Shed != shed {
		t.Fatalf("gate shed = %d, clients saw %d", st.Shed, shed)
	}
	if st.Admitted != served {
		t.Fatalf("gate admitted = %d, clients served %d", st.Admitted, served)
	}
	if st.InFlight != 0 {
		t.Fatalf("in_flight = %d at rest", st.InFlight)
	}
}

// TestScorerRefreshOnUpdate: /v1/update eagerly refreshes warm fast-tier
// scorers, and post-update fast answers reflect the mutated graph (they
// equal a cold server's fast answer on the same topology).
func TestScorerRefreshOnUpdate(t *testing.T) {
	srv, ts := newTieredTestServer(t, 0)

	// Build the scorer with a cold fast-tier query.
	var before MaximizeResponse
	if status, body := postJSON(t, ts.URL+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 4, BudgetMs: 5}, &before); status != http.StatusOK {
		t.Fatalf("cold fast: %d %s", status, body)
	}
	if got := srv.tiered.stats().ScorerBuilds; got < 1 {
		t.Fatalf("scorer builds = %d", got)
	}

	var upd UpdateResponse
	if status, body := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Dataset: "ba",
		Insert:  []UpdateEdge{{From: 0, To: 250}, {From: 250, To: 0}, {From: 1, To: 200}},
	}, &upd); status != http.StatusOK {
		t.Fatalf("update: %d %s", status, body)
	}
	if upd.ScorerNodesRescored == 0 {
		t.Fatal("update refreshed no scorer nodes despite a warm scorer")
	}
	st := srv.tiered.stats()
	if st.ScorerRefreshes < 1 || st.ScorerNodesRescored == 0 {
		t.Fatalf("refresh counters = %+v", st)
	}

	var after MaximizeResponse
	if status, body := postJSON(t, ts.URL+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 4, BudgetMs: 5}, &after); status != http.StatusOK {
		t.Fatalf("warm fast: %d %s", status, body)
	}
	if after.GraphVersion != upd.Version {
		t.Fatalf("fast answer at version %d, update landed %d", after.GraphVersion, upd.Version)
	}
	if st := srv.tiered.stats(); st.ScorerBuilds != 1 {
		t.Fatalf("post-update fast query rebuilt the scorer (builds=%d)", st.ScorerBuilds)
	}
}

// TestStatsTieredSection: /v1/stats exposes the tiered subsystem with
// per-tier latency and the ε ladder.
func TestStatsTieredSection(t *testing.T) {
	_, ts := newTieredTestServer(t, 0)
	if status, body := postJSON(t, ts.URL+"/v1/maximize", MaximizeRequest{Dataset: "ba", K: 3}, nil); status != http.StatusOK {
		t.Fatalf("warm-up: %d %s", status, body)
	}
	if status, body := postJSON(t, ts.URL+"/v1/maximize", MaximizeRequest{Dataset: "ba", K: 3, BudgetMs: 0.0001}, nil); status != http.StatusOK {
		t.Fatalf("budgeted: %d %s", status, body)
	}
	var st struct {
		Tiered struct {
			Gate struct {
				Capacity int   `json:"capacity"`
				Admitted int64 `json:"admitted"`
			} `json:"gate"`
			EpsLadder []float64 `json:"eps_ladder"`
			RIS       struct {
				Served int64   `json:"served"`
				P50Ms  float64 `json:"p50_ms"`
			} `json:"ris"`
			Fast struct {
				Served int64 `json:"served"`
			} `json:"fast"`
		} `json:"tiered"`
	}
	if status := getJSON(t, ts.URL+"/v1/stats", &st); status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if st.Tiered.Gate.Capacity < 1 || st.Tiered.Gate.Admitted < 2 {
		t.Fatalf("gate stats = %+v", st.Tiered.Gate)
	}
	if len(st.Tiered.EpsLadder) == 0 {
		t.Fatal("eps ladder missing")
	}
	if st.Tiered.RIS.Served < 1 {
		t.Fatalf("ris served = %d", st.Tiered.RIS.Served)
	}
	if st.Tiered.Fast.Served < 1 {
		t.Fatalf("fast served = %d (tiny budget should go fast on a barely-calibrated planner)", st.Tiered.Fast.Served)
	}
}

// jsonBody marshals v for an http.Post body.
func jsonBody(t testing.TB, v any) *strings.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return strings.NewReader(string(buf))
}
