// Command timbench is the reproducible performance baseline for the
// query pipeline. It times the two halves of a large-θ query — RR-set
// sampling and node selection (inverted-index build + greedy cover +
// coverage counting) — at Workers=1 and at full parallelism, tracks peak
// RR memory during sampling, verifies that every run is bit-identical,
// and writes the results as machine-readable BENCH.json so CI can
// archive a perf trajectory instead of anecdotes.
//
// Example:
//
//	timbench -n 20000 -m 160000 -theta 500000 -k 50 -out BENCH.json
//	timbench -validate BENCH.json
//
// The -quick mode shrinks the instance for CI smoke runs; the schema is
// identical, so -validate passes on both.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/diffusion"
	"repro/internal/diskrr"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/maxcover"
	"repro/internal/obs"
	"repro/internal/rng"
)

// BenchFile is the BENCH.json schema, version 1. Durations are
// nanoseconds; memory is bytes.
type BenchFile struct {
	Version     int         `json:"version"`
	GeneratedBy string      `json:"generated_by"`
	Config      BenchConfig `json:"config"`
	// Runs holds one entry per measured worker count; Runs[0] is always
	// Workers=1, the speedup denominator.
	Runs []BenchRun `json:"runs"`
	// Speedup is Runs[0] time / best parallel time, per phase.
	Speedup BenchSpeedup `json:"speedup"`
	// Memory held the retired comparison of the zero-copy sampler's peak
	// against the pre-zero-copy merge layout. New files omit it; the
	// field stays so that baselines recorded with it (BENCH_0001.json,
	// BENCH_0002.json) still pass the strict schema check.
	Memory json.RawMessage `json:"memory,omitempty"`
	// OutOfCore times the spill tier's demote (WriteSpill) and promote
	// (ReadSpill) halves over the sampled collection. Optional — older
	// baselines without it stay schema-valid and are simply not compared
	// on this phase.
	OutOfCore *BenchOutOfCore `json:"out_of_core,omitempty"`
	// BitIdentical records that every run produced identical seeds and
	// identical RR arenas; timbench exits non-zero otherwise, so a false
	// here never reaches CI artifacts silently.
	BitIdentical bool `json:"bit_identical"`
}

// BenchOutOfCore is one spill-tier round trip: the collection demoted
// to a spill file and promoted back, with the read-back arena verified
// bit-identical before any number is reported.
type BenchOutOfCore struct {
	Sets        int64 `json:"sets"`
	SpillBytes  int64 `json:"spill_bytes"`
	DemoteNs    int64 `json:"demote_ns"`
	PromoteNs   int64 `json:"promote_ns"`
	RoundTripNs int64 `json:"round_trip_ns"`
}

// BenchConfig echoes the instance parameters for reproducibility.
type BenchConfig struct {
	N       int    `json:"n"`
	M       int    `json:"m"`
	Model   string `json:"model"`
	Theta   int64  `json:"theta"`
	K       int    `json:"k"`
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	Quick   bool   `json:"quick"`
	Cores   int    `json:"cores"`
	// Trace records that the timed runs carried a live per-request trace
	// (the -trace flag), so baselines with and without span overhead are
	// never compared unknowingly.
	Trace bool `json:"trace,omitempty"`
}

// BenchRun is one measured configuration.
type BenchRun struct {
	Workers        int   `json:"workers"`
	SampleNs       int64 `json:"sample_ns"`
	GreedyNs       int64 `json:"greedy_ns"`
	CountCoveredNs int64 `json:"count_covered_ns"`
	SelectNs       int64 `json:"select_ns"`
	TotalNs        int64 `json:"total_ns"`
	// PeakRRBytes is the peak heap growth observed while sampling.
	PeakRRBytes int64 `json:"peak_rr_bytes"`
	// CollectionBytes is the settled arena size (RRCollection.MemoryBytes).
	CollectionBytes int64 `json:"collection_bytes"`
}

// BenchSpeedup is parallel speedup (serial time / parallel time).
type BenchSpeedup struct {
	Sample float64 `json:"sample"`
	Select float64 `json:"select"`
	Total  float64 `json:"total"`
}

func main() {
	var (
		n        = flag.Int("n", 20_000, "nodes of the synthetic Chung-Lu graph")
		m        = flag.Int("m", 160_000, "edges of the synthetic Chung-Lu graph")
		model    = flag.String("model", "ic", "diffusion model: ic or lt")
		theta    = flag.Int64("theta", 500_000, "RR sets of the node-selection phase (the large-θ query)")
		k        = flag.Int("k", 50, "seed-set size of the greedy cover")
		seed     = flag.Uint64("seed", 1, "seed for graph generation and sampling")
		workers  = flag.Int("workers", 0, "parallel worker count to compare against Workers=1 (0 = all cores)")
		quick    = flag.Bool("quick", false, "shrink the instance for CI smoke runs (schema unchanged)")
		out      = flag.String("out", "BENCH.json", "output path")
		validate = flag.String("validate", "", "validate an existing BENCH.json against the schema and exit")
		trace    = flag.Bool("trace", false, "attach a live trace to each timed run, measuring span-recording overhead")
		against  = flag.String("against", "", "committed baseline BENCH.json to compare the fresh run against")
		tol      = flag.Float64("tolerance", 0.25, "allowed fractional slowdown per phase before -against fails")
	)
	flag.Parse()
	if *validate != "" {
		if err := validateFile(*validate); err != nil {
			fmt.Fprintln(os.Stderr, "timbench: invalid:", err)
			os.Exit(1)
		}
		fmt.Printf("timbench: %s is schema-valid\n", *validate)
		return
	}
	if err := run(*n, *m, *model, *theta, *k, *seed, *workers, *quick, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "timbench:", err)
		os.Exit(1)
	}
	if *against != "" {
		if err := compareFiles(*out, *against, *tol); err != nil {
			fmt.Fprintln(os.Stderr, "timbench: regression:", err)
			os.Exit(1)
		}
		fmt.Printf("timbench: %s within %.0f%% of baseline %s in every phase\n", *out, 100**tol, *against)
	}
}

func run(n, m int, modelName string, theta int64, k int, seed uint64, workers int, quick, trace bool, out string) error {
	if quick {
		n, m, theta, k = 2_000, 12_000, 20_000, 20
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var model diffusion.Model
	switch modelName {
	case "ic":
		model = diffusion.NewIC()
	case "lt":
		model = diffusion.NewLT()
	default:
		return fmt.Errorf("unknown model %q (want ic or lt)", modelName)
	}
	g := gen.ChungLuDirected(n, m, 2.4, 2.1, rng.New(seed))
	if model.Kind() == diffusion.LT {
		graph.AssignRandomNormalizedLTKeyed(g, seed+1)
	} else {
		graph.AssignWeightedCascade(g)
	}

	file := BenchFile{
		Version:     1,
		GeneratedBy: "timbench",
		Config: BenchConfig{
			N: n, M: m, Model: modelName, Theta: theta, K: k,
			Seed: seed, Workers: workers, Quick: quick,
			Cores: runtime.GOMAXPROCS(0), Trace: trace,
		},
		BitIdentical: true,
	}

	counts := []int{1, workers}
	if workers == 1 {
		counts = []int{1}
	}
	var refSeeds []uint32
	var refArena uint64
	for _, w := range counts {
		runRes, seeds, arena := benchOnce(g, model, theta, k, seed, w, trace)
		file.Runs = append(file.Runs, runRes)
		if refSeeds == nil {
			refSeeds, refArena = seeds, arena
			continue
		}
		if arena != refArena || !equalSeeds(seeds, refSeeds) {
			file.BitIdentical = false
		}
	}
	base := file.Runs[0]
	best := file.Runs[len(file.Runs)-1]
	file.Speedup = BenchSpeedup{
		Sample: ratio(base.SampleNs, best.SampleNs),
		Select: ratio(base.SelectNs, best.SelectNs),
		Total:  ratio(base.TotalNs, best.TotalNs),
	}

	ooc, err := benchOutOfCore(g, model, theta, seed, workers)
	if err != nil {
		return err
	}
	file.OutOfCore = ooc

	data, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("timbench: θ=%d k=%d n=%d: sample ×%.2f, select ×%.2f, total ×%.2f at %d workers\n",
		theta, k, n, file.Speedup.Sample, file.Speedup.Select, file.Speedup.Total, workers)
	fmt.Printf("timbench: out-of-core: %s spilled in %.1fms, promoted in %.1fms (%d sets, bit-identical)\n",
		fmtBytes(ooc.SpillBytes), float64(ooc.DemoteNs)/1e6, float64(ooc.PromoteNs)/1e6, ooc.Sets)
	if !file.BitIdentical {
		return fmt.Errorf("parallel runs were not bit-identical to Workers=1 (BENCH.json written with bit_identical=false)")
	}
	return nil
}

// benchOnce measures one worker count end to end and returns the seeds
// and an FNV digest of the RR arena for the bit-identity cross-check.
func benchOnce(g *graph.Graph, model diffusion.Model, theta int64, k int, seed uint64, workers int, trace bool) (BenchRun, []uint32, uint64) {
	res := BenchRun{Workers: workers}

	// With -trace the sampling runs under a live Trace, paying exactly the
	// span-recording cost a traced server request pays; without it the ctx
	// carries no trace and every span call is the nil-receiver no-op.
	ctx := context.Background()
	if trace {
		ctx = obs.WithTrace(ctx, obs.NewTrace(fmt.Sprintf("bench-w%d", workers)))
	}

	var col *diffusion.RRCollection
	res.PeakRRBytes = peakDuring(func() {
		t0 := time.Now()
		col = diffusion.SampleCollection(g, model, theta, diffusion.SampleOptions{Workers: workers, Seed: seed, Ctx: ctx})
		res.SampleNs = time.Since(t0).Nanoseconds()
	})
	res.CollectionBytes = col.MemoryBytes()

	t1 := time.Now()
	cover := maxcover.GreedyWorkers(g.N(), col, k, workers)
	res.GreedyNs = time.Since(t1).Nanoseconds()

	t2 := time.Now()
	covered := maxcover.CountCoveredWorkers(g.N(), col, cover.Seeds, workers)
	res.CountCoveredNs = time.Since(t2).Nanoseconds()
	if covered != cover.Covered {
		panic(fmt.Sprintf("coverage disagrees: greedy %d, recount %d", cover.Covered, covered))
	}
	res.SelectNs = res.GreedyNs + res.CountCoveredNs
	res.TotalNs = res.SampleNs + res.SelectNs
	return res, cover.Seeds, arenaHash(col)
}

// benchOutOfCore times the server's spill tier on this instance's
// collection: demote (serialize + fsync to a spill file) and promote
// (sequential read into a fresh arena). The read-back arena must hash
// identically to the source — a spill format that loses bytes has no
// business reporting a throughput number.
func benchOutOfCore(g *graph.Graph, model diffusion.Model, theta int64, seed uint64, workers int) (*BenchOutOfCore, error) {
	col := diffusion.SampleCollection(g, model, theta, diffusion.SampleOptions{Workers: workers, Seed: seed + 7})
	dir, err := os.MkdirTemp("", "timbench-spill-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := dir + "/rrspill-bench.bin"
	hdr := diskrr.SpillHeader{Version: 1, Seed: seed + 7}

	t0 := time.Now()
	bytes, err := diskrr.WriteSpill(path, hdr, col)
	demoteNs := time.Since(t0).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("out-of-core demote: %w", err)
	}
	t1 := time.Now()
	rhdr, back, err := diskrr.ReadSpill(path, g.N())
	promoteNs := time.Since(t1).Nanoseconds()
	if err != nil {
		return nil, fmt.Errorf("out-of-core promote: %w", err)
	}
	if rhdr != hdr || back.Count() != col.Count() || arenaHash(back) != arenaHash(col) {
		return nil, fmt.Errorf("out-of-core round trip not bit-identical")
	}
	return &BenchOutOfCore{
		Sets:        int64(col.Count()),
		SpillBytes:  bytes,
		DemoteNs:    demoteNs,
		PromoteNs:   promoteNs,
		RoundTripNs: demoteNs + promoteNs,
	}, nil
}

// peakDuring runs fn while a background goroutine polls heap usage, and
// returns the peak heap growth over the pre-fn baseline. GC noise makes
// this an approximation, but a faithful one at the multi-hundred-MB
// scale the comparison cares about.
func peakDuring(fn func()) int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	var peak atomic.Int64
	done := make(chan struct{})
	go func() {
		ticker := time.NewTicker(2 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				if grow := int64(m.HeapAlloc) - int64(base); grow > peak.Load() {
					peak.Store(grow)
				}
			}
		}
	}()
	fn()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	if grow := int64(end.HeapAlloc) - int64(base); grow > peak.Load() {
		peak.Store(grow)
	}
	close(done)
	if p := peak.Load(); p > 0 {
		return p
	}
	return 0
}

// arenaHash is an FNV-1a digest of a collection's flat arena.
func arenaHash(col *diffusion.RRCollection) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range col.Flat {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

func equalSeeds(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func ratio(base, v int64) float64 {
	if v <= 0 {
		return 0
	}
	return float64(base) / float64(v)
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%dB", b)
}

// validateFile checks a BENCH.json against the schema: required fields
// present and plausible. CI runs it on the artifact it uploads.
func validateFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f BenchFile
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("schema mismatch: %w", err)
	}
	if f.Version != 1 {
		return fmt.Errorf("version = %d, want 1", f.Version)
	}
	if f.GeneratedBy != "timbench" {
		return fmt.Errorf("generated_by = %q", f.GeneratedBy)
	}
	if len(f.Runs) == 0 {
		return fmt.Errorf("no runs")
	}
	if f.Runs[0].Workers != 1 {
		return fmt.Errorf("runs[0].workers = %d, want the Workers=1 baseline first", f.Runs[0].Workers)
	}
	for i, r := range f.Runs {
		if r.SampleNs <= 0 || r.SelectNs <= 0 || r.TotalNs <= 0 {
			return fmt.Errorf("runs[%d]: non-positive timings: %+v", i, r)
		}
		if r.TotalNs != r.SampleNs+r.SelectNs || r.SelectNs != r.GreedyNs+r.CountCoveredNs {
			return fmt.Errorf("runs[%d]: phase sums inconsistent: %+v", i, r)
		}
		if r.CollectionBytes <= 0 {
			return fmt.Errorf("runs[%d]: missing collection bytes", i)
		}
	}
	if len(f.Runs) > 1 && (f.Speedup.Total <= 0 || f.Speedup.Select <= 0 || f.Speedup.Sample <= 0) {
		return fmt.Errorf("missing speedups: %+v", f.Speedup)
	}
	if o := f.OutOfCore; o != nil {
		if o.Sets <= 0 || o.SpillBytes <= 0 || o.DemoteNs <= 0 || o.PromoteNs <= 0 {
			return fmt.Errorf("out_of_core has non-positive figures: %+v", *o)
		}
		if o.RoundTripNs != o.DemoteNs+o.PromoteNs {
			return fmt.Errorf("out_of_core round trip %d != demote %d + promote %d", o.RoundTripNs, o.DemoteNs, o.PromoteNs)
		}
	}
	if !f.BitIdentical {
		return fmt.Errorf("bit_identical = false")
	}
	return nil
}

// compareFiles fails when the fresh run regressed past tolerance in any
// phase relative to the committed baseline. Only the Workers=1 runs are
// compared — parallel timings swing with CI machine load, serial phase
// times are the stable signal — and only when the instance configs
// match, so a deliberate -quick baseline is never compared against a
// full-size run.
func compareFiles(freshPath, basePath string, tolerance float64) error {
	load := func(path string) (*BenchFile, error) {
		if err := validateFile(path); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f BenchFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, err
		}
		return &f, nil
	}
	fresh, err := load(freshPath)
	if err != nil {
		return err
	}
	base, err := load(basePath)
	if err != nil {
		return err
	}
	fc, bc := fresh.Config, base.Config
	if fc.N != bc.N || fc.M != bc.M || fc.Theta != bc.Theta || fc.K != bc.K ||
		fc.Model != bc.Model || fc.Seed != bc.Seed || fc.Quick != bc.Quick {
		return fmt.Errorf("instance configs differ (fresh %+v vs baseline %+v): not comparable", fc, bc)
	}
	fr, br := fresh.Runs[0], base.Runs[0]
	phases := []struct {
		name        string
		fresh, base int64
	}{
		{"sample", fr.SampleNs, br.SampleNs},
		{"greedy", fr.GreedyNs, br.GreedyNs},
		{"count_covered", fr.CountCoveredNs, br.CountCoveredNs},
		{"total", fr.TotalNs, br.TotalNs},
	}
	var failures []string
	check := func(name string, freshNs, baseNs int64, tol float64) {
		limit := float64(baseNs) * (1 + tol)
		if float64(freshNs) > limit {
			failures = append(failures, fmt.Sprintf("%s %.1fms vs baseline %.1fms (+%.0f%% > %.0f%% allowed)",
				name, float64(freshNs)/1e6, float64(baseNs)/1e6,
				100*(float64(freshNs)/float64(baseNs)-1), 100*tol))
		}
	}
	for _, p := range phases {
		check(p.name, p.fresh, p.base, tolerance)
	}
	// The out-of-core phase is compared only when both files carry it
	// (pre-spill baselines don't), at double tolerance: disk latency on
	// shared CI runners swings far more than CPU-bound phase times.
	if fo, bo := fresh.OutOfCore, base.OutOfCore; fo != nil && bo != nil {
		check("out_of_core.demote", fo.DemoteNs, bo.DemoteNs, 2*tolerance)
		check("out_of_core.promote", fo.PromoteNs, bo.PromoteNs, 2*tolerance)
	}
	if len(failures) > 0 {
		return fmt.Errorf("%s", strings.Join(failures, "; "))
	}
	return nil
}
