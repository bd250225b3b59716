package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
)

// newCapacityTestServer builds a server with a tiny RR-store capacity
// (so churn forces evictions), a memory budget, and optionally a query
// flight log.
func newCapacityTestServer(t testing.TB, qlogPath string) (*Server, string) {
	t.Helper()
	srv, err := New(Config{
		Datasets: []DatasetSpec{
			{Name: "ba", Source: "ba:300:3", Seed: 7},
			{Name: "er", Source: "er:200:600", Seed: 7},
		},
		CacheSize:         4,
		RRCollections:     2,
		RequestTimeout:    time.Minute,
		Workers:           2,
		Seed:              1,
		MemoryBudgetBytes: 1 << 30,
		QLogPath:          qlogPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// recomputeCacheBytes walks the live result-cache entries and re-sums
// their estimated footprints — the ground truth the result_cache ledger
// component must equal whenever no put is in flight.
func recomputeCacheBytes(c *lruCache) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var total int64
	for el := c.ll.Front(); el != nil; el = el.Next() {
		total += el.Value.(*lruEntry).bytes
	}
	return total
}

// TestLedgerExactUnderChurn: after queries, updates (incremental
// repair), and forced RR evictions, the ledger's rr_collections
// component equals the bytes recomputed over the live entries, and the
// figures /v1/stats reports for the rr store, the result cache, and
// the capacity section are bit-for-bit the same numbers. Run under
// -race this also proves the accounting is data-race-free.
func TestLedgerExactUnderChurn(t *testing.T) {
	srv, url := newCapacityTestServer(t, "")

	// Churn phase 1: queries across datasets and rungs. RRCollections=2
	// forces LRU eviction as the third key arrives.
	for _, req := range []MaximizeRequest{
		{Dataset: "ba", K: 2, Epsilon: 0.3},
		{Dataset: "ba", K: 5, Epsilon: 0.3}, // warm extension of the same entry
		{Dataset: "er", K: 2, Epsilon: 0.3},
		{Dataset: "ba", K: 2, Epsilon: 0.25}, // third key: evicts the LRU entry
	} {
		if status, body := postJSON(t, url+"/v1/maximize", req, nil); status != http.StatusOK {
			t.Fatalf("maximize: %d %s", status, body)
		}
	}
	// Churn phase 2: a mutation triggers incremental repair on the next
	// warm query, which reallocates collection storage.
	update := UpdateRequest{Dataset: "ba", Insert: []UpdateEdge{{From: 3, To: 9}, {From: 5, To: 11}}}
	if status, body := postJSON(t, url+"/v1/update", update, nil); status != http.StatusOK {
		t.Fatalf("update: %d %s", status, body)
	}
	for _, req := range []MaximizeRequest{
		{Dataset: "ba", K: 2, Epsilon: 0.25},
		{Dataset: "er", K: 3, Epsilon: 0.3},
	} {
		if status, body := postJSON(t, url+"/v1/maximize", req, nil); status != http.StatusOK {
			t.Fatalf("post-update maximize: %d %s", status, body)
		}
	}
	// Churn phase 3: shrink-refresh the same result-cache key — a large
	// answer replaced by a small one, then grown again. The refresh path
	// releases the old charge before adding the new; a single signed
	// delta here once let the component dip through readers' snapshots
	// and drift from the recomputed truth.
	big := MaximizeResponse{Seeds: make([]uint32, 64), Tier: "exact"}
	small := MaximizeResponse{Seeds: []uint32{1}}
	for _, v := range []MaximizeResponse{big, small, big, small} {
		srv.results.put("maximize|ba|churn-refresh", v)
	}
	if got, want := srv.results.memoryTotal(), recomputeCacheBytes(srv.results); got != want {
		t.Fatalf("result_cache ledger %d != recomputed %d after shrink-refresh churn", got, want)
	}

	// Recompute the rr footprint from the live entries and compare with
	// the ledger; evicted entries must have released their bytes.
	srv.rr.mu.Lock()
	var recomputed int64
	live := 0
	for _, e := range srv.rr.entries {
		recomputed += e.col.MemoryBytes()
		live++
	}
	reported := srv.rr.memoryTotal()
	srv.rr.mu.Unlock()
	if live > 2 {
		t.Fatalf("rr store holds %d entries, capacity is 2", live)
	}
	if reported != recomputed {
		t.Fatalf("ledger rr bytes %d != recomputed %d", reported, recomputed)
	}
	if reported <= 0 {
		t.Fatal("no rr bytes accounted after churn")
	}

	var st statsSnapshot
	if status := getJSON(t, url+"/v1/stats", &st); status != http.StatusOK {
		t.Fatal("stats")
	}
	// /v1/stats may race against nothing here (no traffic in flight), so
	// every figure must agree exactly with the ledger.
	if st.RRCache.MemoryBytes != srv.ledger.SumComponent("rr_collections") {
		t.Fatalf("stats rr memory %d != ledger %d", st.RRCache.MemoryBytes, srv.ledger.SumComponent("rr_collections"))
	}
	if st.ResultCache.MemoryBytes != srv.ledger.SumComponent("result_cache") {
		t.Fatalf("stats cache memory %d != ledger %d", st.ResultCache.MemoryBytes, srv.ledger.SumComponent("result_cache"))
	}
	if st.ResultCache.MemoryBytes <= 0 {
		t.Fatal("result cache bytes not accounted")
	}
	if st.Capacity.Components["rr_collections"] != st.RRCache.MemoryBytes {
		t.Fatalf("capacity section rr %d != rr_cache %d", st.Capacity.Components["rr_collections"], st.RRCache.MemoryBytes)
	}
	if st.Capacity.Components["result_cache"] != st.ResultCache.MemoryBytes {
		t.Fatalf("capacity section cache %d != result_cache %d", st.Capacity.Components["result_cache"], st.ResultCache.MemoryBytes)
	}
	// CSR snapshots are func-backed: every loaded dataset pins at least
	// its adjacency arrays.
	if st.Capacity.Components["csr_snapshots"] <= 0 {
		t.Fatalf("csr snapshot bytes missing: %+v", st.Capacity.Components)
	}
	var sum int64
	for _, b := range st.Capacity.Components {
		sum += b
	}
	if st.Capacity.TotalBytes != sum {
		t.Fatalf("capacity total %d != component sum %d (%+v)", st.Capacity.TotalBytes, sum, st.Capacity.Components)
	}
}

// TestCapacityEndpoint: GET /v1/capacity reports a ledger tree whose
// root equals the sum of its leaves, headroom against the configured
// budget, and — once the planner has observed real collections —
// per-rung RR byte predictions.
func TestCapacityEndpoint(t *testing.T) {
	_, url := newCapacityTestServer(t, "")
	// Calibrate the planner's byte model: one real query per dataset.
	for _, req := range []MaximizeRequest{
		{Dataset: "ba", K: 5, Epsilon: 0.3},
		{Dataset: "er", K: 5, Epsilon: 0.3},
	} {
		if status, body := postJSON(t, url+"/v1/maximize", req, nil); status != http.StatusOK {
			t.Fatalf("maximize: %d %s", status, body)
		}
	}

	var capResp struct {
		TotalBytes    int64           `json:"total_bytes"`
		BudgetBytes   int64           `json:"budget_bytes"`
		HeadroomBytes *int64          `json:"headroom_bytes"`
		Ledger        obs.LedgerEntry `json:"ledger"`
		Predictions   []struct {
			Dataset string `json:"dataset"`
			Model   string `json:"model"`
			K       int    `json:"k"`
			Rungs   []struct {
				Epsilon        float64 `json:"epsilon"`
				PredictedBytes int64   `json:"predicted_bytes"`
			} `json:"rungs"`
		} `json:"predicted_rr_bytes"`
	}
	if status := getJSON(t, url+"/v1/capacity?k=10", &capResp); status != http.StatusOK {
		t.Fatal("capacity")
	}
	if capResp.TotalBytes <= 0 || capResp.TotalBytes != capResp.Ledger.Bytes {
		t.Fatalf("total %d vs ledger root %d", capResp.TotalBytes, capResp.Ledger.Bytes)
	}
	var leafSum int64
	for _, d := range capResp.Ledger.Children {
		var dsum int64
		for _, c := range d.Children {
			dsum += c.Bytes
		}
		if d.Bytes != dsum {
			t.Fatalf("dataset %s interior %d != child sum %d", d.Name, d.Bytes, dsum)
		}
		leafSum += d.Bytes
	}
	if capResp.Ledger.Bytes != leafSum {
		t.Fatalf("root %d != leaf sum %d", capResp.Ledger.Bytes, leafSum)
	}
	if capResp.BudgetBytes != 1<<30 {
		t.Fatalf("budget %d", capResp.BudgetBytes)
	}
	if capResp.HeadroomBytes == nil || *capResp.HeadroomBytes != capResp.BudgetBytes-capResp.TotalBytes {
		t.Fatalf("headroom %v, want budget-total", capResp.HeadroomBytes)
	}
	if len(capResp.Predictions) == 0 {
		t.Fatal("no byte predictions after calibration queries")
	}
	for _, p := range capResp.Predictions {
		if p.K != 10 || len(p.Rungs) == 0 {
			t.Fatalf("prediction %+v", p)
		}
		// θ grows as ε shrinks, so predicted bytes must be monotone
		// non-increasing along the ascending ladder.
		for i := 1; i < len(p.Rungs); i++ {
			if p.Rungs[i].Epsilon <= p.Rungs[i-1].Epsilon {
				t.Fatalf("ladder not ascending: %+v", p.Rungs)
			}
			if p.Rungs[i].PredictedBytes > p.Rungs[i-1].PredictedBytes {
				t.Fatalf("prediction not monotone in ε: %+v", p.Rungs)
			}
		}
		if p.Rungs[0].PredictedBytes <= 0 {
			t.Fatalf("non-positive prediction: %+v", p.Rungs)
		}
	}

	if status := getJSON(t, url+"/v1/capacity?k=zero", nil); status != http.StatusBadRequest {
		t.Fatalf("bad k: status %d, want 400", status)
	}
}

// TestHealthSLO: the endpoint reports both tier classes, stays 200
// while budgets are healthy, and flips to 503 once a class burns
// critically (fast window ≥10× the objective and slow window over 1×).
func TestHealthSLO(t *testing.T) {
	srv, url := newCapacityTestServer(t, "")

	var health struct {
		Status  obs.BudgetState               `json:"status"`
		Classes map[string]obs.BudgetSnapshot `json:"classes"`
	}
	if status := getJSON(t, url+"/v1/health/slo", &health); status != http.StatusOK {
		t.Fatalf("healthy server: status %d", status)
	}
	if health.Status != obs.BudgetOK {
		t.Fatalf("fresh server status %q", health.Status)
	}
	for _, class := range []string{"budgeted", "unbudgeted"} {
		if _, ok := health.Classes[class]; !ok {
			t.Fatalf("class %s missing: %+v", class, health.Classes)
		}
	}

	// Burn the budgeted class: all-bad traffic puts the 5-minute window
	// at 100× the 1% objective and the 1-hour window along with it.
	for i := 0; i < 20; i++ {
		srv.obs.sloObserve(true, true)
	}
	if status := getJSON(t, url+"/v1/health/slo", &health); status != http.StatusServiceUnavailable {
		t.Fatalf("burning server: status %d, want 503", status)
	}
	if health.Status != obs.BudgetCritical || health.Classes["budgeted"].State != obs.BudgetCritical {
		t.Fatalf("burning server state: %+v", health)
	}
	if health.Classes["unbudgeted"].State != obs.BudgetOK {
		t.Fatalf("unbudgeted class burned by budgeted traffic: %+v", health.Classes["unbudgeted"])
	}

	var st statsSnapshot
	if status := getJSON(t, url+"/v1/stats", &st); status != http.StatusOK {
		t.Fatal("stats")
	}
	if st.SLO["budgeted"].State != obs.BudgetCritical {
		t.Fatalf("stats slo section disagrees with /v1/health/slo: %+v", st.SLO)
	}
}

// TestQLogRecordsServerTraffic: a server with -qlog writes a readable
// flight log — header pinning seeds and datasets, one record per
// maximize-shaped query (plain, constrained, budgeted, failed), with
// profile hashes on constrained shapes and statuses matching the wire.
func TestQLogRecordsServerTraffic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "QLOG.jsonl")
	srv, url := newCapacityTestServer(t, path)

	type sent struct {
		req        MaximizeRequest
		wantStatus int
	}
	traffic := []sent{
		{MaximizeRequest{Dataset: "ba", K: 3, Epsilon: 0.3}, http.StatusOK},
		{MaximizeRequest{Dataset: "ba", K: 2, Epsilon: 0.3, Exclude: []uint32{0}}, http.StatusOK},
		{MaximizeRequest{Dataset: "ba", K: 2, Epsilon: 0.3, BudgetMs: 5000}, http.StatusOK},
		{MaximizeRequest{Dataset: "nope", K: 1}, http.StatusNotFound},
	}
	for i, s := range traffic {
		if status, body := postJSON(t, url+"/v1/maximize", s.req, nil); status != s.wantStatus {
			t.Fatalf("request %d: status %d (%s), want %d", i, status, body, s.wantStatus)
		}
	}

	var st statsSnapshot
	if status := getJSON(t, url+"/v1/stats", &st); status != http.StatusOK {
		t.Fatal("stats")
	}
	if !st.QLog.Enabled || st.QLog.Seen != int64(len(traffic)) || st.QLog.Written != int64(len(traffic)) {
		t.Fatalf("qlog stats: %+v", st.QLog)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	header, records, err := obs.ReadQLog(f)
	if err != nil {
		t.Fatal(err)
	}
	if header.Seed != 1 || len(header.Datasets) != 2 || len(header.EpsLadder) == 0 {
		t.Fatalf("header does not pin the serving environment: %+v", header)
	}
	if len(records) != len(traffic) {
		t.Fatalf("%d records, want %d", len(records), len(traffic))
	}
	for i, rec := range records {
		want := traffic[i]
		if rec.Dataset != want.req.Dataset || rec.K != want.req.K || rec.Status != want.wantStatus {
			t.Fatalf("record %d: %+v, want shape of %+v", i, rec, want)
		}
		if rec.Endpoint != "maximize" || rec.TraceID == "" {
			t.Fatalf("record %d missing endpoint/trace: %+v", i, rec)
		}
		constrained := len(want.req.Exclude) > 0
		if (rec.Profile != "") != constrained {
			t.Fatalf("record %d profile %q, constrained=%v", i, rec.Profile, constrained)
		}
		if want.wantStatus == http.StatusOK && (rec.Tier == "" || rec.Theta <= 0) {
			t.Fatalf("OK record %d lacks outcome fields: %+v", i, rec)
		}
		if i > 0 && rec.OffsetMs < records[i-1].OffsetMs {
			t.Fatalf("offsets not monotone: %v then %v", records[i-1].OffsetMs, rec.OffsetMs)
		}
	}
}
