package server

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/diskrr"
	"repro/internal/fault"
	"repro/internal/graph"
)

// newSpillTestServer builds a server whose rr-store holds exactly one
// resident collection and demotes evictions into dir — every change of
// (ε, profile) key round-trips through the spill tier.
func newSpillTestServer(t testing.TB, dir string, diskBudget int64) (*Server, string) {
	t.Helper()
	srv, err := New(Config{
		Datasets:        []DatasetSpec{{Name: "ba", Source: "ba:300:3", Seed: 7}},
		CacheSize:       8,
		RRCollections:   1,
		RequestTimeout:  time.Minute,
		Workers:         2,
		Seed:            1,
		SpillDir:        dir,
		DiskBudgetBytes: diskBudget,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts.URL
}

// spillFiles lists the rrspill-* files currently in dir.
func spillFiles(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "rrspill-") {
			names = append(names, e.Name())
		}
	}
	return names
}

// TestSpillTierDeterminism is the tentpole acceptance test: a server
// whose collections bounce through the spill tier (capacity 1, every
// key change demotes the previous key and promotes its spill on
// return) answers every query — including across a /v1/update, where
// the promoted collection is behind the snapshot and must repair —
// byte-identically to an identically-seeded server that never evicts.
func TestSpillTierDeterminism(t *testing.T) {
	dir := t.TempDir()
	spill, spillURL := newSpillTestServer(t, dir, 0)

	noEvict, err := New(Config{
		Datasets:       []DatasetSpec{{Name: "ba", Source: "ba:300:3", Seed: 7}},
		CacheSize:      8,
		RRCollections:  64,
		RequestTimeout: time.Minute,
		Workers:        2,
		Seed:           1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := httptest.NewServer(noEvict)
	defer ref.Close()

	queries := []MaximizeRequest{
		{Dataset: "ba", K: 2, Epsilon: 0.3},
		{Dataset: "ba", K: 2, Epsilon: 0.25}, // demotes eps=0.3
		{Dataset: "ba", K: 3, Epsilon: 0.3},  // demotes eps=0.25, promotes + extends eps=0.3
	}
	update := UpdateRequest{Dataset: "ba", Insert: []UpdateEdge{{From: 3, To: 9}, {From: 5, To: 11}}}
	postUpdate := []MaximizeRequest{
		{Dataset: "ba", K: 2, Epsilon: 0.25}, // promotes a stale spill, repairs to the new version
		{Dataset: "ba", K: 4, Epsilon: 0.3},  // promote + repair + extend
	}

	run := func(url string, req MaximizeRequest) MaximizeResponse {
		t.Helper()
		var resp MaximizeResponse
		if status, body := postJSON(t, url+"/v1/maximize", req, &resp); status != http.StatusOK {
			t.Fatalf("maximize %+v: %d %s", req, status, body)
		}
		return resp
	}
	check := func(i int, req MaximizeRequest, a, b MaximizeResponse) {
		t.Helper()
		if fmt.Sprint(a.Seeds) != fmt.Sprint(b.Seeds) || a.Theta != b.Theta ||
			a.SpreadEstimate != b.SpreadEstimate || a.GraphVersion != b.GraphVersion {
			t.Fatalf("query %d (%+v) diverged:\nspill:    seeds %v theta %d spread %v v%d\nno-evict: seeds %v theta %d spread %v v%d",
				i, req, a.Seeds, a.Theta, a.SpreadEstimate, a.GraphVersion,
				b.Seeds, b.Theta, b.SpreadEstimate, b.GraphVersion)
		}
	}

	for i, req := range queries {
		check(i, req, run(spillURL, req), run(ref.URL, req))
	}
	for _, url := range []string{spillURL, ref.URL} {
		if status, body := postJSON(t, url+"/v1/update", update, nil); status != http.StatusOK {
			t.Fatalf("update: %d %s", status, body)
		}
	}
	for i, req := range postUpdate {
		check(len(queries)+i, req, run(spillURL, req), run(ref.URL, req))
	}

	st := spill.rr.stats()
	if st.Demotions < 2 || st.Promotions < 2 {
		t.Fatalf("traffic never exercised the spill tier: %+v", st)
	}
	if st.SpillFailures != 0 || st.SpillDrops != 0 {
		t.Fatalf("spill tier dropped or failed silently: %+v", st)
	}
	// The spill ledger must match the files on disk exactly.
	var onDisk int64
	for _, name := range spillFiles(t, dir) {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if got := spill.ledger.SumComponent("rr_spill"); got != onDisk {
		t.Fatalf("rr_spill ledger %d != on-disk bytes %d", got, onDisk)
	}
	if st.SpillBytes != onDisk || onDisk <= 0 {
		t.Fatalf("stats spill_bytes %d, on disk %d", st.SpillBytes, onDisk)
	}
}

// TestSpillTierCapacityTiers: under eviction churn the two-tier
// capacity view holds exactly — ram + disk == ledger total, the disk
// tier equals the spill files' ledger bytes, and /v1/stats and
// /v1/capacity report the same split.
func TestSpillTierCapacityTiers(t *testing.T) {
	dir := t.TempDir()
	srv, url := newSpillTestServer(t, dir, 0)
	for _, req := range []MaximizeRequest{
		{Dataset: "ba", K: 2, Epsilon: 0.3},
		{Dataset: "ba", K: 2, Epsilon: 0.25},
		{Dataset: "ba", K: 2, Epsilon: 0.2},
		{Dataset: "ba", K: 3, Epsilon: 0.3},
	} {
		if status, body := postJSON(t, url+"/v1/maximize", req, nil); status != http.StatusOK {
			t.Fatalf("maximize: %d %s", status, body)
		}
	}

	var st statsSnapshot
	if status := getJSON(t, url+"/v1/stats", &st); status != http.StatusOK {
		t.Fatal("stats")
	}
	tiers := st.Capacity.Tiers
	ram, disk := tiers["ram"], tiers["disk"]
	if ram.TotalBytes+disk.TotalBytes != st.Capacity.TotalBytes {
		t.Fatalf("tiers do not partition the total: ram %d + disk %d != %d",
			ram.TotalBytes, disk.TotalBytes, st.Capacity.TotalBytes)
	}
	if want := srv.ledger.SumComponents(diskComponents...); disk.TotalBytes != want {
		t.Fatalf("disk tier %d != ledger disk components %d", disk.TotalBytes, want)
	}
	if disk.TotalBytes <= 0 {
		t.Fatal("no disk-tier bytes after spill churn")
	}
	if disk.TotalBytes != st.Capacity.Components["rr_spill"] {
		t.Fatalf("disk tier %d != rr_spill component %d (no WAL configured)",
			disk.TotalBytes, st.Capacity.Components["rr_spill"])
	}
	if st.RRCache.SpilledCollections <= 0 || st.RRCache.SpillBytes != disk.TotalBytes {
		t.Fatalf("rr stats disagree with the disk tier: %+v", st.RRCache)
	}

	var capResp struct {
		TotalBytes int64                   `json:"total_bytes"`
		Tiers      map[string]capacityTier `json:"tiers"`
	}
	if status := getJSON(t, url+"/v1/capacity", &capResp); status != http.StatusOK {
		t.Fatal("capacity")
	}
	cr, cd := capResp.Tiers["ram"], capResp.Tiers["disk"]
	if cr.TotalBytes+cd.TotalBytes != capResp.TotalBytes {
		t.Fatalf("/v1/capacity tiers do not partition the total: %+v", capResp)
	}
	if cd.TotalBytes != disk.TotalBytes {
		t.Fatalf("/v1/capacity disk tier %d != /v1/stats %d", cd.TotalBytes, disk.TotalBytes)
	}
}

// TestSpillTierDiskBudget: a disk budget smaller than any single spill
// file drops every demoted record immediately — files removed, ledger
// back to zero, drops counted.
func TestSpillTierDiskBudget(t *testing.T) {
	dir := t.TempDir()
	srv, url := newSpillTestServer(t, dir, 1)
	for _, req := range []MaximizeRequest{
		{Dataset: "ba", K: 2, Epsilon: 0.3},
		{Dataset: "ba", K: 2, Epsilon: 0.25},
		{Dataset: "ba", K: 2, Epsilon: 0.2},
	} {
		if status, body := postJSON(t, url+"/v1/maximize", req, nil); status != http.StatusOK {
			t.Fatalf("maximize: %d %s", status, body)
		}
	}
	st := srv.rr.stats()
	if st.Demotions < 2 || st.SpillDrops < 2 {
		t.Fatalf("budget never dropped a spill: %+v", st)
	}
	if got := srv.ledger.SumComponent("rr_spill"); got != 0 {
		t.Fatalf("rr_spill ledger %d after dropping every record", got)
	}
	if left := spillFiles(t, dir); len(left) != 0 {
		t.Fatalf("dropped spills left files: %v", left)
	}
}

// TestSpillWriteFailureNoDebris: a demotion whose spill write fails
// injects no debris into the directory, charges nothing to the disk
// ledger, counts a spill failure, and the next query on the key
// resamples cold with the right answer (the pre-spill eviction
// behavior).
func TestSpillWriteFailureNoDebris(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	srv, url := newSpillTestServer(t, dir, 0)

	var first MaximizeResponse
	if status, body := postJSON(t, url+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 2, Epsilon: 0.3}, &first); status != http.StatusOK {
		t.Fatalf("maximize: %d %s", status, body)
	}
	fault.Set(diskrr.FaultSpillWrite, fault.FailOn(0, errors.New("injected: disk full")))
	// The key change evicts eps=0.3; its demotion hits the armed fault.
	if status, body := postJSON(t, url+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 2, Epsilon: 0.25}, nil); status != http.StatusOK {
		t.Fatalf("maximize: %d %s", status, body)
	}
	fault.Reset()

	st := srv.rr.stats()
	if st.SpillFailures != 1 || st.Demotions != 0 {
		t.Fatalf("failed demotion not accounted as a failure: %+v", st)
	}
	if got := srv.ledger.SumComponent("rr_spill"); got != 0 {
		t.Fatalf("rr_spill ledger %d after a failed spill", got)
	}
	if left := spillFiles(t, dir); len(left) != 0 {
		t.Fatalf("failed spill left debris: %v", left)
	}
	// The key resamples cold — bit-identical by the keyed entry seed.
	var again MaximizeResponse
	if status, body := postJSON(t, url+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 3, Epsilon: 0.3}, &again); status != http.StatusOK {
		t.Fatalf("maximize after failed spill: %d %s", status, body)
	}
	if again.RRSetsReused != 0 || again.RRSetsSampled != again.Theta {
		t.Fatalf("query after a dropped spill must resample cold: %+v", again)
	}
}

// TestSpillPromoteRejectsOutOfRangeID: a spill file whose records hold a
// node id outside the graph is dropped at promotion — file removed,
// rr_spill ledger back to exactly 0 — and the query answers
// bit-identically to a cold server. Promoting the id instead would hand
// the cover-index build a member past its per-node counters.
func TestSpillPromoteRejectsOutOfRangeID(t *testing.T) {
	dir := t.TempDir()
	srv, url := newSpillTestServer(t, dir, 0)
	query := MaximizeRequest{Dataset: "ba", K: 3, Epsilon: 0.3}

	if status, body := postJSON(t, url+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 2, Epsilon: 0.3}, nil); status != http.StatusOK {
		t.Fatalf("maximize: %d %s", status, body)
	}
	// A filler entry evicts (and demotes) the warm collection; the filler
	// itself never samples, so its own later eviction writes no file.
	srv.rr.entry(t.Context(), "ba|ic|eps=0.9")
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("want one spill file after the demotion, have %v", files)
	}
	// Point the first set's root — inside every θ prefix — past the graph.
	// The rewrite keeps the file's shape, so its size (and the ledger's
	// charge for it) is unchanged.
	path := filepath.Join(dir, files[0])
	hdr, col, err := diskrr.ReadSpill(path, 300)
	if err != nil {
		t.Fatal(err)
	}
	col.Flat[0] = math.MaxUint32
	if _, err := diskrr.WriteSpill(path, hdr, col); err != nil {
		t.Fatal(err)
	}

	var got MaximizeResponse
	if status, body := postJSON(t, url+"/v1/maximize", query, &got); status != http.StatusOK {
		t.Fatalf("maximize over the corrupt spill: %d %s", status, body)
	}
	if st := srv.rr.stats(); st.SpillDrops != 1 || st.Promotions != 0 {
		t.Fatalf("corrupt spill was not dropped unserved: %+v", st)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("dropped spill file still on disk: %v", err)
	}
	if got := srv.ledger.SumComponent("rr_spill"); got != 0 {
		t.Fatalf("rr_spill ledger %d after dropping the only spill, want exactly 0", got)
	}

	_, coldURL := newSpillTestServer(t, t.TempDir(), 0)
	var want MaximizeResponse
	if status, body := postJSON(t, coldURL+"/v1/maximize", query, &want); status != http.StatusOK {
		t.Fatalf("cold maximize: %d %s", status, body)
	}
	if fmt.Sprint(got.Seeds) != fmt.Sprint(want.Seeds) || got.Theta != want.Theta || got.SpreadEstimate != want.SpreadEstimate {
		t.Fatalf("answer after the dropped spill differs from a cold server:\ngot  seeds %v theta %d spread %v\nwant seeds %v theta %d spread %v",
			got.Seeds, got.Theta, got.SpreadEstimate, want.Seeds, want.Theta, want.SpreadEstimate)
	}
}

// TestEvictMidExtendLedgerExact is the satellite-1 regression test: a
// query that finishes extending an entry evicted mid-flight must not
// re-charge the shared (dataset, rr_collections) account the eviction
// already released — the leak would sit in /v1/capacity forever. The
// fault point fires between the extension and the accounting block;
// the handler forces the eviction into exactly that window.
func TestEvictMidExtendLedgerExact(t *testing.T) {
	t.Cleanup(fault.Reset)
	dir := t.TempDir()
	srv, url := newSpillTestServer(t, dir, 0)

	if status, body := postJSON(t, url+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 2, Epsilon: 0.3}, nil); status != http.StatusOK {
		t.Fatalf("maximize: %d %s", status, body)
	}
	srv.rr.mu.Lock()
	victim := srv.rr.entries["ba|ic|eps=0.3"]
	srv.rr.mu.Unlock()
	if victim == nil {
		t.Fatal("warm entry missing")
	}

	demoted := make(chan struct{})
	armed := true
	fault.Set(faultRREvictMidExtend, func() error {
		if !armed {
			return nil
		}
		armed = false
		// Force the eviction from another goroutine — entry() will block
		// demoting the victim until this query releases the entry lock,
		// which is exactly the in-flight window the guard covers.
		go func() {
			defer close(demoted)
			srv.rr.entry(t.Context(), "ba|ic|eps=0.9")
		}()
		for {
			srv.rr.mu.Lock()
			evicted := victim.evicted
			srv.rr.mu.Unlock()
			if evicted {
				return nil
			}
			runtime.Gosched()
		}
	})
	// K:6 forces an extension of the warm entry, so the query is
	// mid-flight on the victim when the eviction lands.
	if status, body := postJSON(t, url+"/v1/maximize",
		MaximizeRequest{Dataset: "ba", K: 6, Epsilon: 0.3}, nil); status != http.StatusOK {
		t.Fatalf("maximize: %d %s", status, body)
	}
	<-demoted
	fault.Reset()

	// The eviction released the victim's bytes and the guard kept the
	// finishing query from re-charging them; the filler entry has never
	// run a query. Exactly zero resident rr bytes remain.
	if got := srv.ledger.SumComponent("rr_collections"); got != 0 {
		t.Fatalf("rr_collections ledger %d after evict-mid-extend, want exactly 0", got)
	}
	// The demotion still captured the extended collection for the next
	// query on the key.
	if st := srv.rr.stats(); st.Demotions != 1 {
		t.Fatalf("victim not demoted: %+v", st)
	}
}

// TestMmapDatasets: with -mmap-datasets the CSR arrays live in an
// unlinked memory mapping (no csrmmap files remain after load) and
// answers are bit-identical to a heap-resident server.
func TestMmapDatasets(t *testing.T) {
	if !graph.MmapSupported() {
		t.Skip("no mmap on this platform")
	}
	dir := t.TempDir()
	mmapped, err := New(Config{
		Datasets:       []DatasetSpec{{Name: "ba", Source: "ba:300:3", Seed: 7}},
		RequestTimeout: time.Minute,
		Workers:        2,
		Seed:           1,
		SpillDir:       dir,
		MmapDatasets:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(mmapped)
	defer ts.Close()
	heapSrv, heapURL := newSpillTestServer(t, t.TempDir(), 0)
	_ = heapSrv

	req := MaximizeRequest{Dataset: "ba", K: 5, Epsilon: 0.3}
	var a, b MaximizeResponse
	if status, body := postJSON(t, ts.URL+"/v1/maximize", req, &a); status != http.StatusOK {
		t.Fatalf("mmap maximize: %d %s", status, body)
	}
	if status, body := postJSON(t, heapURL+"/v1/maximize", req, &b); status != http.StatusOK {
		t.Fatalf("heap maximize: %d %s", status, body)
	}
	if fmt.Sprint(a.Seeds) != fmt.Sprint(b.Seeds) || a.Theta != b.Theta || a.SpreadEstimate != b.SpreadEstimate {
		t.Fatalf("mmapped graph diverged: %+v vs %+v", a, b)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "csrmmap-") {
			t.Fatalf("mmap backing file %s not unlinked", e.Name())
		}
	}
}

// TestDatasetNameValidation is the satellite-2 regression test: names
// that would corrupt '|'-separated keys or directory layouts are
// rejected at registration with the typed 400, and the two
// key-extraction helpers agree on where the dataset field lives.
func TestDatasetNameValidation(t *testing.T) {
	for _, name := range []string{"", "a|b", "a/b", "|", "/"} {
		_, err := New(Config{Datasets: []DatasetSpec{{Name: name, Source: "ba:50:2", Seed: 1}}})
		if err == nil {
			t.Fatalf("name %q accepted", name)
		}
		if !errors.Is(err, errBadRequest) {
			t.Fatalf("name %q: error %v is not typed errBadRequest", name, err)
		}
		if statusOf(err) != http.StatusBadRequest {
			t.Fatalf("name %q: status %d, want 400", name, statusOf(err))
		}
	}
	if _, err := New(Config{Datasets: []DatasetSpec{{Name: "ok-name_2", Source: "ba:50:2", Seed: 1}}}); err != nil {
		t.Fatalf("valid name rejected: %v", err)
	}

	for key, want := range map[string]string{
		"nethept|ic|eps=0.1":                "nethept",
		"nethept|ic|eps=0.1|profile=abc123": "nethept",
		"bare":                              "bare",
	} {
		if got := rrKeyDataset(key); got != want {
			t.Fatalf("rrKeyDataset(%q) = %q, want %q", key, got, want)
		}
	}
	for key, want := range map[string]string{
		"maximize|nethept|k=5|...": "nethept",
		"spread|er|seeds=1,2":      "er",
		"bare":                     "bare",
	} {
		if got := cacheKeyDataset(key); got != want {
			t.Fatalf("cacheKeyDataset(%q) = %q, want %q", key, got, want)
		}
	}
}

// TestRRKeyHelpers pins the reuse-key shape rrKeyFor produces and the
// field extractors' inverses — the spill header staleness rule depends
// on rrKeyProfile reading back exactly what rrKeyFor embedded.
func TestRRKeyHelpers(t *testing.T) {
	plain := rrKeyFor("ba", "ic", 0.3, 0)
	if plain != "ba|ic|eps=0.3" {
		t.Fatalf("unconstrained key %q", plain)
	}
	profiled := rrKeyFor("ba", "lt", 0.25, 0xdeadbeef)
	if profiled != "ba|lt|eps=0.25|profile=deadbeef" {
		t.Fatalf("profiled key %q", profiled)
	}
	if got := rrKeyProfile(plain); got != 0 {
		t.Fatalf("rrKeyProfile(plain) = %#x", got)
	}
	if got := rrKeyProfile(profiled); got != 0xdeadbeef {
		t.Fatalf("rrKeyProfile(profiled) = %#x", got)
	}
	if got := rrKeyCost(profiled); got != "ba|lt" {
		t.Fatalf("rrKeyCost(profiled) = %q", got)
	}
	if got := rrKeyCost("bare"); got != "bare" {
		t.Fatalf("rrKeyCost(bare) = %q", got)
	}
}
