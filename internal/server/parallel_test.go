package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// newParallelTestServer builds a server with an explicit batch
// parallelism, mirroring newTestServer's datasets.
func newParallelTestServer(t testing.TB, batchParallelism int) (*Server, string) {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "ring.txt")
	content := "# tiny ring\n0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n1 3\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Datasets: []DatasetSpec{
			{Name: "ba", Source: "ba:300:3", Seed: 7},
			{Name: "ring", Source: "file:" + path, Seed: 7},
		},
		CacheSize:        64,
		RequestTimeout:   time.Minute,
		Workers:          2,
		Seed:             1,
		BatchParallelism: batchParallelism,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// TestBatchParallelMatchesSequential: a bounded-parallel batch returns
// exactly the answers a fully sequential batch (BatchParallelism=1)
// returns — reuse and concurrency can only skip work, never change a
// result. The batch mixes plain, constrained, weighted, cross-dataset,
// no-reuse, and failing items.
func TestBatchParallelMatchesSequential(t *testing.T) {
	queries := []MaximizeRequest{
		{Dataset: "ba", K: 4, Epsilon: 0.3},
		{Dataset: "ba", K: 2, Epsilon: 0.3, Exclude: []uint32{0, 1}},
		{Dataset: "ba", K: 6, Epsilon: 0.3},
		{Dataset: "ba", K: 3, Epsilon: 0.3, Weights: map[string]float64{"1": 2, "2": 1, "3": 4}, MaxHops: 3},
		{Dataset: "ring", K: 2, Epsilon: 0.3},
		{Dataset: "missing", K: 1},
		{Dataset: "ba", K: 3, Epsilon: 0.3, NoReuse: true},
		{Dataset: "ba", K: 2, Epsilon: 0.25},
	}
	run := func(parallelism int) BatchResponse {
		_, url := newParallelTestServer(t, parallelism)
		var resp BatchResponse
		if status, body := postJSON(t, url+"/v1/query/batch", BatchRequest{Queries: queries}, &resp); status != http.StatusOK {
			t.Fatalf("parallelism=%d: %d %s", parallelism, status, body)
		}
		return resp
	}
	want := run(1)
	got := run(8)
	if len(got.Results) != len(want.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		w, g := want.Results[i], got.Results[i]
		if (w.Result == nil) != (g.Result == nil) {
			t.Fatalf("item %d: success/failure differs: %+v vs %+v", i, g, w)
		}
		if w.Result == nil {
			if g.Error == "" {
				t.Fatalf("item %d: error text missing", i)
			}
			continue
		}
		if !reflect.DeepEqual(g.Result.Seeds, w.Result.Seeds) {
			t.Fatalf("item %d: seeds %v != %v", i, g.Result.Seeds, w.Result.Seeds)
		}
		if g.Result.Theta != w.Result.Theta ||
			g.Result.SpreadEstimate != w.Result.SpreadEstimate ||
			g.Result.KptPlus != w.Result.KptPlus {
			t.Fatalf("item %d drifted: %+v vs %+v", i, g.Result, w.Result)
		}
	}
}

// TestBatchParallelStatsCounters: a parallel batch feeds the new
// /v1/stats parallel section — sharing groups, warm-up and parallel item
// splits, and the (process-wide) scratch pools.
func TestBatchParallelStatsCounters(t *testing.T) {
	_, url := newParallelTestServer(t, 4)
	req := BatchRequest{Queries: []MaximizeRequest{
		{Dataset: "ba", K: 3, Epsilon: 0.3},
		{Dataset: "ba", K: 5, Epsilon: 0.3},
		{Dataset: "ba", K: 2, Epsilon: 0.3},
		{Dataset: "ring", K: 2, Epsilon: 0.3},
	}}
	var resp BatchResponse
	if status, body := postJSON(t, url+"/v1/query/batch", req, &resp); status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}
	var st statsSnapshot
	if status := getJSON(t, url+"/v1/stats", &st); status != http.StatusOK {
		t.Fatal("stats")
	}
	p := st.Parallel
	if p.BatchParallelism != 4 {
		t.Fatalf("batch_parallelism = %d, want 4", p.BatchParallelism)
	}
	// Two sharing groups: the three ba items (one warm-up + two parallel)
	// and the singleton ring item (parallel).
	if p.BatchGroups != 2 {
		t.Fatalf("batch_groups = %d, want 2 (%+v)", p.BatchGroups, p)
	}
	if p.BatchWarmupItems != 1 || p.BatchParallelItems != 3 {
		t.Fatalf("warmup/parallel = %d/%d, want 1/3 (%+v)", p.BatchWarmupItems, p.BatchParallelItems, p)
	}
	// Pool counters are process-wide and monotone; after a batch at least
	// some sampler and selection scratch traffic must be visible.
	if p.SamplerPoolHits+p.SamplerPoolMisses == 0 {
		t.Fatalf("sampler pool counters empty: %+v", p)
	}
	if p.SelectScratchHits+p.SelectScratchMisses == 0 {
		t.Fatalf("selection scratch counters empty: %+v", p)
	}
}

// TestRRStoreMemoryAccountingExact: after a mix of cold queries, warm
// extensions, and batch traffic over the zero-copy layout, the store's
// reported memory equals the recomputed sum over live entries — the
// Figure 12 accounting and the -rr-collections eviction threshold both
// depend on this staying exact.
func TestRRStoreMemoryAccountingExact(t *testing.T) {
	srv, url := newParallelTestServer(t, 4)
	for _, req := range []MaximizeRequest{
		{Dataset: "ba", K: 2, Epsilon: 0.3},
		{Dataset: "ba", K: 6, Epsilon: 0.3}, // extends the same entry
		{Dataset: "ba", K: 2, Epsilon: 0.25},
		{Dataset: "ring", K: 2, Epsilon: 0.3},
	} {
		if status, body := postJSON(t, url+"/v1/maximize", req, nil); status != http.StatusOK {
			t.Fatalf("maximize: %d %s", status, body)
		}
	}
	var resp BatchResponse
	batch := BatchRequest{Queries: []MaximizeRequest{
		{Dataset: "ba", K: 4, Epsilon: 0.3},
		{Dataset: "ba", K: 7, Epsilon: 0.3},
	}}
	if status, body := postJSON(t, url+"/v1/query/batch", batch, &resp); status != http.StatusOK {
		t.Fatalf("batch: %d %s", status, body)
	}

	srv.rr.mu.Lock()
	var recomputed int64
	for _, e := range srv.rr.entries {
		recomputed += e.col.MemoryBytes()
	}
	reported := srv.rr.memoryTotal()
	srv.rr.mu.Unlock()
	if reported != recomputed {
		t.Fatalf("rr-store memory accounting drifted: reported %d, recomputed %d", reported, recomputed)
	}
	if reported <= 0 {
		t.Fatalf("no rr memory accounted: %d", reported)
	}
}
