package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/diffusion"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/obs"
)

// newEvolveTestServer builds a server over one file-backed dataset with a
// fully known edge list, so tests can name real edges in update batches.
func newEvolveTestServer(t testing.TB) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(evolveTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts
}

func evolveTestConfig(t testing.TB) Config {
	t.Helper()
	const n = 60
	path := filepath.Join(t.TempDir(), "known.txt")
	content := fmt.Sprintf("# nodes=%d edges=%d\n", n, 3*n)
	for i := 0; i < n; i++ {
		content += fmt.Sprintf("%d %d\n%d %d\n%d %d\n",
			i, (i+1)%n, i, (i+7)%n, (i+3)%n, i)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return Config{
		Datasets:       []DatasetSpec{{Name: "known", Source: "file:" + path, Seed: 11}},
		RequestTimeout: time.Minute,
		Workers:        2,
		Seed:           5,
	}
}

// evolveTestUpdates is the mutation sequence both servers replay: it
// touches many heads (deletes, inserts, node growth with edges into the
// new nodes) so warm collections really need repair.
func evolveTestUpdates() []UpdateRequest {
	u1 := UpdateRequest{Dataset: "known", AddNodes: 2}
	for i := 0; i < 8; i++ {
		u1.Delete = append(u1.Delete, UpdateEdge{From: uint32(i), To: uint32(i+1) % 60})
		u1.Insert = append(u1.Insert, UpdateEdge{From: uint32(i * 3), To: 60})
	}
	u2 := UpdateRequest{Dataset: "known"}
	for i := 0; i < 6; i++ {
		u2.Insert = append(u2.Insert, UpdateEdge{From: 61, To: uint32(i * 5)})
		u2.Delete = append(u2.Delete, UpdateEdge{From: uint32(i), To: uint32(i+7) % 60})
	}
	return []UpdateRequest{u1, u2}
}

func applyUpdates(t *testing.T, url string, updates []UpdateRequest) UpdateResponse {
	t.Helper()
	var last UpdateResponse
	for i, u := range updates {
		status, body := postJSON(t, url+"/v1/update", u, &last)
		if status != http.StatusOK {
			t.Fatalf("update %d: status %d body %s", i, status, body)
		}
	}
	return last
}

// maximizeEssence strips the volatile fields (timing, cache/reuse
// accounting) so warm and cold answers can be compared exactly.
func maximizeEssence(m MaximizeResponse) MaximizeResponse {
	m.ElapsedMs = 0
	m.Cached = false
	m.RRSetsReused = 0
	m.RRSetsSampled = 0
	m.RRSetsRepaired = 0
	m.TraceID = ""
	return m
}

// TestUpdateWarmMatchesCold is the subsystem acceptance test: after a
// sequence of update batches, a server whose RR collections were warmed
// before the updates (and repaired incrementally) answers /v1/maximize
// bit-identically to a cold server that saw the updates before any query
// — for IC, and for LT (whose variant the cold server materializes at
// update time, before any LT query names it).
func TestUpdateWarmMatchesCold(t *testing.T) {
	_, warm := newEvolveTestServer(t)
	_, cold := newEvolveTestServer(t)

	icReq := MaximizeRequest{Dataset: "known", K: 4, Epsilon: 0.3}
	ltReq := MaximizeRequest{Dataset: "known", Model: "lt", K: 3, Epsilon: 0.3}

	// Warm both models' collections pre-update.
	var pre MaximizeResponse
	if status, body := postJSON(t, warm.URL+"/v1/maximize", icReq, &pre); status != http.StatusOK {
		t.Fatalf("warm-up maximize: %d %s", status, body)
	}
	if pre.GraphVersion != 0 {
		t.Fatalf("pre-update graph version = %d", pre.GraphVersion)
	}
	if status, body := postJSON(t, warm.URL+"/v1/maximize", ltReq, nil); status != http.StatusOK {
		t.Fatalf("warm-up lt maximize: %d %s", status, body)
	}

	updates := evolveTestUpdates()
	applyUpdates(t, warm.URL, updates)
	applyUpdates(t, cold.URL, updates)

	var warmIC, coldIC, warmLT, coldLT MaximizeResponse
	if status, body := postJSON(t, warm.URL+"/v1/maximize", icReq, &warmIC); status != http.StatusOK {
		t.Fatalf("warm ic: %d %s", status, body)
	}
	if status, body := postJSON(t, cold.URL+"/v1/maximize", icReq, &coldIC); status != http.StatusOK {
		t.Fatalf("cold ic: %d %s", status, body)
	}
	if status, body := postJSON(t, warm.URL+"/v1/maximize", ltReq, &warmLT); status != http.StatusOK {
		t.Fatalf("warm lt: %d %s", status, body)
	}
	if status, body := postJSON(t, cold.URL+"/v1/maximize", ltReq, &coldLT); status != http.StatusOK {
		t.Fatalf("cold lt: %d %s", status, body)
	}

	if got, want := maximizeEssence(warmIC), maximizeEssence(coldIC); !reflect.DeepEqual(got, want) {
		t.Fatalf("IC warm/cold diverged:\nwarm %+v\ncold %+v", got, want)
	}
	if got, want := maximizeEssence(warmLT), maximizeEssence(coldLT); !reflect.DeepEqual(got, want) {
		t.Fatalf("LT warm/cold diverged:\nwarm %+v\ncold %+v", got, want)
	}
	if warmIC.GraphVersion != 2 {
		t.Fatalf("post-update graph version = %d", warmIC.GraphVersion)
	}
	if warmIC.RRSetsRepaired == 0 {
		t.Fatalf("warm IC query did not repair any sets: %+v", warmIC)
	}
	if warmIC.RRSetsRepaired+warmIC.RRSetsReused+warmIC.RRSetsSampled < warmIC.Theta {
		t.Fatalf("repair accounting does not cover θ: %+v", warmIC)
	}

	// Spread on the mutated graph must agree too.
	spReq := SpreadRequest{Dataset: "known", Seeds: coldIC.Seeds, Samples: 1500}
	var warmSp, coldSp SpreadResponse
	if status, body := postJSON(t, warm.URL+"/v1/spread", spReq, &warmSp); status != http.StatusOK {
		t.Fatalf("warm spread: %d %s", status, body)
	}
	if status, body := postJSON(t, cold.URL+"/v1/spread", spReq, &coldSp); status != http.StatusOK {
		t.Fatalf("cold spread: %d %s", status, body)
	}
	if warmSp.Spread != coldSp.Spread || warmSp.Stderr != coldSp.Stderr || warmSp.GraphVersion != 2 {
		t.Fatalf("spread diverged: warm %+v cold %+v", warmSp, coldSp)
	}

	// The warm server's stats must show the repairs and the new dataset
	// version/size.
	var st statsSnapshot
	if status := getJSON(t, warm.URL+"/v1/stats", &st); status != http.StatusOK {
		t.Fatalf("stats: %d", status)
	}
	if st.RRCache.Repairs < 2 { // one per (model, ε) entry used post-update
		t.Fatalf("repairs = %d, want >= 2: %+v", st.RRCache.Repairs, st.RRCache)
	}
	if st.RRCache.SetsRepaired == 0 || st.RRCache.SetsRepairReused == 0 {
		t.Fatalf("repair set split missing: %+v", st.RRCache)
	}
	if st.RRCache.RepairColdResets != 0 {
		t.Fatalf("unexpected cold resets: %+v", st.RRCache)
	}
	if st.Endpoints["update"].Requests != int64(len(updates)) {
		t.Fatalf("update endpoint counters: %+v", st.Endpoints["update"])
	}
	if len(st.Datasets) != 1 || st.Datasets[0].Version != 2 {
		t.Fatalf("stats datasets: %+v", st.Datasets)
	}
	if st.Datasets[0].Nodes != 62 {
		t.Fatalf("stats dataset nodes = %d, want 62", st.Datasets[0].Nodes)
	}
	if st.UptimeSeconds <= 0 {
		t.Fatalf("uptime missing: %v", st.UptimeSeconds)
	}
}

// TestUpdateValidation: malformed update batches are rejected atomically
// with 4xx statuses and leave the dataset version untouched.
func TestUpdateValidation(t *testing.T) {
	_, ts := newEvolveTestServer(t)

	cases := []struct {
		name string
		req  UpdateRequest
		want int
	}{
		{"unknown dataset", UpdateRequest{Dataset: "nope", Insert: []UpdateEdge{{From: 0, To: 1}}}, http.StatusNotFound},
		{"empty batch", UpdateRequest{Dataset: "known"}, http.StatusBadRequest},
		{"delete missing edge", UpdateRequest{Dataset: "known", Delete: []UpdateEdge{{From: 0, To: 2}}}, http.StatusBadRequest},
		{"insert out of range", UpdateRequest{Dataset: "known", Insert: []UpdateEdge{{From: 0, To: 999}}}, http.StatusBadRequest},
		{"add_nodes overflowing int", UpdateRequest{Dataset: "known", AddNodes: math.MaxInt64}, http.StatusBadRequest},
		{"add_nodes past the uint32 id space", UpdateRequest{Dataset: "known", AddNodes: 1 << 32}, http.StatusBadRequest},
		{"mixed valid+invalid", UpdateRequest{
			Dataset: "known",
			Insert:  []UpdateEdge{{From: 0, To: 5}},
			Delete:  []UpdateEdge{{From: 0, To: 2}},
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if status, body := postJSON(t, ts.URL+"/v1/update", tc.req, nil); status != tc.want {
			t.Errorf("%s: status %d (want %d) body %s", tc.name, status, tc.want, body)
		}
	}

	var ds struct {
		Datasets []datasetInfo `json:"datasets"`
	}
	if status := getJSON(t, ts.URL+"/v1/datasets", &ds); status != http.StatusOK {
		t.Fatalf("datasets: %d", status)
	}
	if ds.Datasets[0].Version != 0 {
		t.Fatalf("rejected updates bumped the version: %+v", ds.Datasets[0])
	}

	// A valid update then lands with version 1 and the right arithmetic.
	var ok UpdateResponse
	status, body := postJSON(t, ts.URL+"/v1/update", UpdateRequest{
		Dataset:  "known",
		AddNodes: 1,
		Insert:   []UpdateEdge{{From: 60, To: 0}},
		Delete:   []UpdateEdge{{From: 0, To: 1}},
	}, &ok)
	if status != http.StatusOK {
		t.Fatalf("valid update: %d %s", status, body)
	}
	if ok.Version != 1 || ok.Nodes != 61 || ok.Edges != 180 || ok.Inserted != 1 || ok.Deleted != 1 || ok.AddedNodes != 1 {
		t.Fatalf("update response: %+v", ok)
	}
}

// TestStaleSnapshotBypass: a query whose snapshot raced behind the
// shared RR collection (another query already advanced the entry past
// it) is served from a private cold sample at its own version — the
// entry is neither downgraded nor consulted — and the repaired entry
// keeps serving the current version bit-identically.
func TestStaleSnapshotBypass(t *testing.T) {
	srv, err := New(evolveTestConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	evg, err := srv.registry.get("known", diffusion.NewIC().Kind())
	if err != nil {
		t.Fatal(err)
	}
	g0, v0 := evg.Snapshot()
	const key = "known|ic|eps=0.3"
	const theta = 200
	ctx := context.Background()

	// Warm the entry at v0.
	src0 := srv.rr.source(key, evg, v0, diffusion.SampleConfig{})
	want0, _, err := src0.NodeSelectionSets(ctx, g0, diffusion.NewIC(), theta, 2)
	if err != nil {
		t.Fatal(err)
	}
	want0Flat := append([]uint32(nil), want0.Flat...)

	// An update lands; a fresh query advances the entry to v1.
	if _, err := srv.registry.update("known", evolve.Batch{
		Inserts: []graph.Edge{{From: 9, To: 30}}, Deletes: []evolve.EdgeKey{{From: 1, To: 2}},
	}); err != nil {
		t.Fatal(err)
	}
	g1, v1 := evg.Snapshot()
	src1 := srv.rr.source(key, evg, v1, diffusion.SampleConfig{})
	if _, _, err := src1.NodeSelectionSets(ctx, g1, diffusion.NewIC(), theta, 2); err != nil {
		t.Fatal(err)
	}
	if src1.repaired == 0 {
		t.Fatalf("advancing query should have repaired: %+v", src1)
	}

	// A straggler still holding the v0 snapshot queries now: it must get
	// exactly the v0 bytes it would have gotten before the update, and
	// the entry must stay at v1.
	stale := srv.rr.source(key, evg, v0, diffusion.SampleConfig{})
	got, gotIdx, err := stale.NodeSelectionSets(ctx, g0, diffusion.NewIC(), theta, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gotIdx != nil {
		t.Fatal("stale bypass returned a cover index; its private sample has none")
	}
	if len(got.Flat) != len(want0Flat) {
		t.Fatalf("stale query shape: %d vs %d members", len(got.Flat), len(want0Flat))
	}
	for i := range want0Flat {
		if got.Flat[i] != want0Flat[i] {
			t.Fatalf("stale query member %d: %d vs %d", i, got.Flat[i], want0Flat[i])
		}
	}
	if st := srv.rr.stats(); st.StaleBypasses != 1 {
		t.Fatalf("stale bypass counter: %+v", st)
	}

	// And the entry still answers the current version untouched.
	src1b := srv.rr.source(key, evg, v1, diffusion.SampleConfig{})
	cur, _, err := src1b.NodeSelectionSets(ctx, g1, diffusion.NewIC(), theta, 2)
	if err != nil {
		t.Fatal(err)
	}
	cold := &diffusion.RRCollection{Off: []int64{0}}
	if err := diffusion.ExtendCollection(ctx, g1, diffusion.NewIC(), cold, theta, srv.cfg.Seed^fnv64(key), 2); err != nil {
		t.Fatal(err)
	}
	for i := range cold.Flat {
		if cur.Flat[i] != cold.Flat[i] {
			t.Fatalf("entry corrupted by stale query: member %d: %d vs %d", i, cur.Flat[i], cold.Flat[i])
		}
	}
}

// TestUpdateRepeatedQueriesCacheAcrossVersions: the result cache keys on
// the graph version, so a post-update repeat of a pre-update query
// recomputes, and repeating it again hits the cache at the new version.
func TestUpdateRepeatedQueriesCacheAcrossVersions(t *testing.T) {
	_, ts := newEvolveTestServer(t)
	req := MaximizeRequest{Dataset: "known", K: 3, Epsilon: 0.3}

	var m1, m2, m3 MaximizeResponse
	postJSON(t, ts.URL+"/v1/maximize", req, &m1)
	applyUpdates(t, ts.URL, evolveTestUpdates()[:1])
	if status, body := postJSON(t, ts.URL+"/v1/maximize", req, &m2); status != http.StatusOK {
		t.Fatalf("post-update maximize: %d %s", status, body)
	}
	if m2.Cached {
		t.Fatal("post-update query served a stale cached answer")
	}
	if m2.GraphVersion != 1 {
		t.Fatalf("graph version = %d", m2.GraphVersion)
	}
	postJSON(t, ts.URL+"/v1/maximize", req, &m3)
	if !m3.Cached || m3.GraphVersion != 1 {
		t.Fatalf("repeat at same version not cached: %+v", m3)
	}
}

// TestRRIndexBuiltOncePerCollectionState: the rr-store indexes an entry's
// collection once per collection state. After warm-up, a query whose θ
// the collection already holds builds no index, one that extends the
// collection builds exactly one, and the first query after each update
// (the repair changes the sets) builds exactly one. Each query's trace
// holds one rr.index span per build the counter saw, and every answer
// equals a cold server's at the same version.
func TestRRIndexBuiltOncePerCollectionState(t *testing.T) {
	srv, warm := newEvolveTestServer(t)
	var applied []UpdateRequest
	query := func(seed uint64, k int) (MaximizeResponse, int64) {
		t.Helper()
		req := MaximizeRequest{Dataset: "known", K: k, Epsilon: 0.3, Seed: &seed}
		reqID := fmt.Sprintf("rr-index-%d", seed)
		before := srv.rr.indexBuilds.Int()
		var got, want MaximizeResponse
		resp, raw := doRequest(t, http.MethodPost, warm.URL+"/v1/maximize", reqID, req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("warm maximize: %d %s", resp.StatusCode, raw)
		}
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		built := srv.rr.indexBuilds.Int() - before
		resp, raw = doRequest(t, http.MethodGet, warm.URL+"/v1/trace/"+reqID, "", nil)
		var trace obs.TraceSnapshot
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &trace) != nil {
			t.Fatalf("/v1/trace/%s: %d %s", reqID, resp.StatusCode, raw)
		}
		var spans int64
		for _, sp := range trace.Spans {
			if sp.Name == "rr.index" {
				spans++
			}
		}
		if spans != built {
			t.Fatalf("seed %d: %d rr.index spans, counter rose by %d", seed, spans, built)
		}
		_, cold := newEvolveTestServer(t)
		applyUpdates(t, cold.URL, applied)
		if status, body := postJSON(t, cold.URL+"/v1/maximize", req, &want); status != http.StatusOK {
			t.Fatalf("cold maximize: %d %s", status, body)
		}
		if !reflect.DeepEqual(maximizeEssence(got), maximizeEssence(want)) {
			t.Fatalf("seed %d after %d updates: warm %+v, cold %+v", seed, len(applied), got, want)
		}
		return got, built
	}

	if _, built := query(1, 4); built != 1 {
		t.Fatalf("cold entry built %d indexes, want 1", built)
	}
	warmHits := 0
	for seed := uint64(2); seed < 12; seed++ {
		got, built := query(seed, 2+int(seed%3))
		want := int64(0)
		if got.RRSetsSampled > 0 {
			want = 1
		} else {
			warmHits++
		}
		if built != want {
			t.Fatalf("seed %d (sampled %d sets): built %d indexes, want %d", seed, got.RRSetsSampled, built, want)
		}
	}
	if warmHits == 0 {
		t.Fatal("every query extended the collection; none exercised the warm index")
	}
	for i, u := range evolveTestUpdates() {
		applyUpdates(t, warm.URL, []UpdateRequest{u})
		applied = append(applied, u)
		got, built := query(uint64(100+i), 3)
		if got.RRSetsRepaired == 0 || built != 1 {
			t.Fatalf("update %d: repaired %d sets and built %d indexes, want a repair and 1 build", i, got.RRSetsRepaired, built)
		}
	}
}

// TestRRIndexPatchedMatchesRebuild: the rr-store derives an entry's cover
// index from the previous one — patched by the repair after an update,
// and patched again by an extension — yet it always equals the index a
// rebuild of the entry's collection would produce, and every answer
// equals a cold server's. Checked after each of evolveTestUpdates (node
// growth included), after a query that repairs and then extends, and
// after a spill promotion whose repair is cancelled, followed by one that
// completes: the cancelled repair leaves the entry its index and the
// ledger exact.
func TestRRIndexPatchedMatchesRebuild(t *testing.T) {
	cfg := evolveTestConfig(t)
	cfg.RRCollections = 1
	cfg.SpillDir = t.TempDir()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	warm := httptest.NewServer(srv)
	t.Cleanup(warm.Close)
	const key = "known|ic|eps=0.3"
	var applied []UpdateRequest
	update := func(u UpdateRequest) {
		t.Helper()
		applyUpdates(t, warm.URL, []UpdateRequest{u})
		applied = append(applied, u)
	}
	query := func(label string, k int, seed uint64) MaximizeResponse {
		t.Helper()
		req := MaximizeRequest{Dataset: "known", K: k, Epsilon: 0.3, Seed: &seed}
		var got, want MaximizeResponse
		if status, body := postJSON(t, warm.URL+"/v1/maximize", req, &got); status != http.StatusOK {
			t.Fatalf("%s: warm maximize: %d %s", label, status, body)
		}
		_, cold := newEvolveTestServer(t)
		applyUpdates(t, cold.URL, applied)
		if status, body := postJSON(t, cold.URL+"/v1/maximize", req, &want); status != http.StatusOK {
			t.Fatalf("%s: cold maximize: %d %s", label, status, body)
		}
		if !reflect.DeepEqual(maximizeEssence(got), maximizeEssence(want)) {
			t.Fatalf("%s: warm %+v, cold %+v", label, got, want)
		}
		evg, err := srv.registry.get("known", diffusion.NewIC().Kind())
		if err != nil {
			t.Fatal(err)
		}
		g, _ := evg.Snapshot()
		srv.rr.mu.Lock()
		e := srv.rr.entries[key]
		srv.rr.mu.Unlock()
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.idx == nil || !reflect.DeepEqual(e.idx, maxcover.NewIndex(g.N(), e.col, 1)) {
			t.Fatalf("%s: the entry's index differs from a rebuild of its %d sets", label, e.col.Count())
		}
		return got
	}

	query("warm-up", 2, 1)
	for i, u := range evolveTestUpdates() {
		update(u)
		if got := query(fmt.Sprintf("update %d", i), 2, uint64(10+i)); got.RRSetsRepaired == 0 {
			t.Fatalf("update %d: the query repaired nothing: %+v", i, got)
		}
	}
	update(UpdateRequest{Dataset: "known", Insert: []UpdateEdge{{From: 10, To: 20}, {From: 33, To: 5}}})
	if got := query("repair and extend", 1, 20); got.RRSetsRepaired == 0 || got.RRSetsSampled == 0 {
		t.Fatalf("the query did not both repair and extend: %+v", got)
	}

	// A filler entry evicts the collection into the spill tier. After one
	// more update, a query whose context is already cancelled promotes
	// it without an index, builds one, and stops in the repair: the
	// entry keeps that index of its old version, charged to the ledger,
	// so the next query repairs the pair by one patch (plus one more if
	// it extends) rather than indexing every set again.
	srv.rr.entry(t.Context(), "known|ic|eps=0.9")
	update(UpdateRequest{Dataset: "known", Delete: []UpdateEdge{{From: 10, To: 20}}, Insert: []UpdateEdge{{From: 7, To: 33}}})
	evg, err := srv.registry.get("known", diffusion.NewIC().Kind())
	if err != nil {
		t.Fatal(err)
	}
	g, version := evg.Snapshot()
	cancelled, cancel := context.WithCancel(t.Context())
	cancel()
	src := srv.rr.source(key, evg, version, diffusion.SampleConfig{})
	if _, _, err := src.NodeSelectionSets(cancelled, g, diffusion.NewIC(), 1, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled repair: err %v, want context.Canceled", err)
	}
	srv.rr.mu.Lock()
	e := srv.rr.entries[key]
	var recomputed int64
	for _, x := range srv.rr.entries {
		recomputed += x.col.MemoryBytes() + x.idx.MemoryBytes()
	}
	reported := srv.rr.memoryTotal()
	srv.rr.mu.Unlock()
	e.mu.Lock()
	if e.version == version || e.idx == nil || !reflect.DeepEqual(e.idx, maxcover.NewIndex(e.idx.N(), e.col, 1)) {
		t.Fatalf("after a cancelled repair the entry (version %d of %d) lost the index of its %d sets", e.version, version, e.col.Count())
	}
	e.mu.Unlock()
	if reported != recomputed {
		t.Fatalf("after a cancelled repair the ledger charges %d bytes, the entries hold %d", reported, recomputed)
	}
	before := srv.rr.indexBuilds.Int()
	got := query("repair after a cancelled repair", 2, 30)
	want := int64(1)
	if got.RRSetsSampled > 0 {
		want++
	}
	if built := srv.rr.indexBuilds.Int() - before; got.RRSetsRepaired == 0 || built != want {
		t.Fatalf("the promoted collection repaired %d sets over %d index states, want a repair and %d: %+v", got.RRSetsRepaired, built, want, got)
	}
	if st := srv.rr.stats(); st.Demotions != 1 || st.Promotions != 1 {
		t.Fatalf("the collection did not go through the spill tier: %+v", st)
	}
}
