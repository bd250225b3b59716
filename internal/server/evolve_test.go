package server

import (
	"context"
	"fmt"
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
	want0, err := src0.NodeSelectionSets(ctx, g0, diffusion.NewIC(), theta, 2)
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
	if _, err := src1.NodeSelectionSets(ctx, g1, diffusion.NewIC(), theta, 2); err != nil {
		t.Fatal(err)
	}
	if src1.repaired == 0 {
		t.Fatalf("advancing query should have repaired: %+v", src1)
	}

	// A straggler still holding the v0 snapshot queries now: it must get
	// exactly the v0 bytes it would have gotten before the update, and
	// the entry must stay at v1.
	stale := srv.rr.source(key, evg, v0, diffusion.SampleConfig{})
	got, err := stale.NodeSelectionSets(ctx, g0, diffusion.NewIC(), theta, 2)
	if err != nil {
		t.Fatal(err)
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
	cur, err := src1b.NodeSelectionSets(ctx, g1, diffusion.NewIC(), theta, 2)
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
