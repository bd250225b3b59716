package main

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"time"

	"repro/internal/diffusion"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/tim"
)

const (
	// inputStream is the PCG stream the workload seed drives; setup draws
	// from fixed seeds instead, so it does the same work for every
	// workload seed.
	inputStream = 0x70657266
	warmupSeed  = 0x77726d
)

func (d datasetParams) source() string { return "profile:" + d.Profile + ":" + d.Scale }

// generate builds the dataset's topology exactly as the server's registry
// builds a profile source.
func (d datasetParams) generate() (*graph.Graph, error) {
	p, err := gen.ProfileByName(d.Profile)
	if err != nil {
		return nil, err
	}
	scale, err := gen.ParseScale(d.Scale)
	if err != nil {
		return nil, err
	}
	g := p.Generate(scale, d.Seed)
	if g.N() != d.Nodes {
		return nil, fmt.Errorf("dataset %s has %d nodes, workloads.json says %d", d.source(), g.N(), d.Nodes)
	}
	return g, nil
}

// requestCount is the fixed number of requests a phase of the given
// length sends.
func requestCount(rate float64, seconds int) int {
	return max(1, int(math.Round(rate*float64(seconds))))
}

func (b *bench) timOptions(seed uint64) tim.Options {
	return tim.Options{K: b.p.K[0], Epsilon: b.p.Epsilon, Workers: b.p.Workers, Seed: seed}
}

// offline runs the paper's workload: one caller sends a fixed number of
// TIM+ queries back to back, each with a fresh seed.
func (b *bench) offline() (*run, error) {
	p := b.p
	r := &run{}
	rnd := rand.New(rand.NewPCG(b.seed, inputStream))
	seeds := make([]uint64, requestCount(p.RequestsPerSecond, b.seconds))
	for i := range seeds {
		seeds[i] = rnd.Uint64()
	}
	setup := func() (*graph.Graph, error) {
		t0 := time.Now()
		g, err := p.Dataset.generate()
		if err != nil {
			return nil, err
		}
		graph.AssignWeightedCascade(g)
		t1 := time.Now()
		_, err = tim.MaximizeContext(context.Background(), g, diffusion.NewIC(), b.timOptions(warmupSeed))
		r.spans.add("setup", "setup.dataset", t0, t1, nil)
		r.spans.add("setup", "setup.warmup", t1, time.Now(), nil)
		return g, err
	}

	if !b.traced {
		var ph *offlinePhase
		setupS, err := setupAround(p.SetupReps, setup, func(g *graph.Graph) error {
			ph = b.offlinePhase(r, g, seeds, false)
			return nil
		})
		if err != nil {
			return nil, err
		}
		b.checkHash(r, ph.answers)
		r.metrics = map[string]float64{
			"setup_s":          setupS,
			"latency_p50_ms":   percentile(ph.lat, 50),
			"latency_p90_ms":   percentile(ph.lat, 90),
			"cpu_ms_per_req":   per(ms(ph.stats.cpu), float64(len(ph.lat))),
			"live_heap_p90_mb": percentile(ph.stats.liveMiB, 90),
		}
		r.reportf("queries: attempted=%d failed=%d latency %s", r.attempted, r.failed, latencyNote(ph.lat))
		r.reportf("throughput_qps=%.4f (%d queries in %.2fs, closed loop, one caller)", per(float64(len(ph.lat)), ph.stats.wall.Seconds()), len(ph.lat), ph.stats.wall.Seconds())
		r.reportf("%s", ph.stats.heapNote())
		r.reportf("cpu: %.2f cores busy over the phase; setup_s is the median of %d reps", ph.stats.cpu.Seconds()/ph.stats.wall.Seconds(), p.SetupReps)
		return r, nil
	}

	r.spans = newSpanLog()
	seeds = seeds[:max(1, len(seeds)/2)]
	runtime.GC()
	g, err := setup()
	if err != nil {
		return nil, err
	}
	plain := b.offlinePhase(r, g, seeds, false)
	traced := b.offlinePhase(r, g, seeds, true)
	b.checkHash(r, plain.answers)
	l := newLayers()
	minCover, sumCover := math.Inf(1), 0.0
	for i := range seeds {
		if !slices.Equal(plain.answers[i], traced.answers[i]) {
			r.problem("query %d: traced answer differs from the untraced one", i)
		}
		if traced.callMs[i] < 0 {
			continue
		}
		bd := analyze(traced.traces[i], "kpt.estimate", "kpt.refine", "select")
		l.addQuery(bd)
		l.theta += float64(traced.thetas[i])
		if bd.theta != float64(traced.thetas[i]) {
			r.problem("query %d: select span theta %.0f, Result.Theta %d", i, bd.theta, traced.thetas[i])
		}
		cover := bd.coverMs / traced.callMs[i]
		minCover, sumCover = min(minCover, cover), sumCover+cover
		if cover < 0.95 {
			r.problem("query %d: phase spans cover %.1f%% of the call, want >= 95%%", i, 100*cover)
		}
	}
	r.metrics = l.metrics()
	r.metrics["diffusion.sampler_pool_hit_ratio"] = plain.stats.samplerHitRatio
	r.metrics["maxcover.scratch_hit_ratio"] = plain.stats.scratchHitRatio
	r.metrics["server.stale_bypasses"] = 0
	r.metrics["server.alloc_kb_per_req"] = 0
	r.metrics["tim.alloc_kb_per_query"] = per(float64(plain.stats.allocBytes)/1024, float64(len(plain.lat)))
	r.metrics["obs.trace_overhead_pct"] = overheadPct(plain.lat, traced.lat)
	r.reportf("queries: attempted=%d failed=%d (both phases)", r.attempted, r.failed)
	r.reportf("untraced latency %s", latencyNote(plain.lat))
	r.reportf("traced latency   %s", latencyNote(traced.lat))
	r.reportf("attribution: kpt.estimate+kpt.refine+select cover min %.2f%% mean %.2f%% of each MaximizeContext call (n=%d)",
		100*minCover, 100*per(sumCover, l.queries), int(l.queries))
	return r, nil
}

// offlinePhase is one pass over the queries. Slices are indexed by query;
// callMs is -1 for a query that failed.
type offlinePhase struct {
	lat     []float64 // ms of each completed query, for percentiles
	callMs  []float64
	answers [][]uint32
	thetas  []int64
	traces  []obs.TraceSnapshot
	stats   phaseStats
}

func (b *bench) offlinePhase(r *run, g *graph.Graph, seeds []uint64, traced bool) *offlinePhase {
	n := len(seeds)
	ph := &offlinePhase{callMs: make([]float64, n), answers: make([][]uint32, n), thetas: make([]int64, n), traces: make([]obs.TraceSnapshot, n)}
	model := diffusion.NewIC()
	m := startMeter()
	for i, seed := range seeds {
		ctx := context.Background()
		var tr *obs.Trace
		id := fmt.Sprintf("offline-%d", i)
		if traced {
			tr = obs.NewTrace(id)
			ctx = obs.WithTrace(ctx, tr)
		}
		t0 := time.Now()
		res, err := tim.MaximizeContext(ctx, g, model, b.timOptions(seed))
		t1 := time.Now()
		r.attempted++
		ph.callMs[i] = -1
		if err != nil {
			r.failed++
			r.problem("query %d: %v", i, err)
			continue
		}
		if msg := checkSeeds(res.Seeds, b.p.K[0], g.N(), nil); msg != "" {
			r.failed++
			r.problem("query %d: %s", i, msg)
			continue
		}
		ph.callMs[i] = ms(t1.Sub(t0))
		ph.lat = append(ph.lat, ph.callMs[i])
		ph.answers[i], ph.thetas[i] = res.Seeds, res.Theta
		if traced {
			tr.Finish()
			ph.traces[i] = tr.Snapshot()
			r.spans.traces = append(r.spans.traces, ph.traces[i])
			r.spans.add(id, "query", t0, t1, map[string]any{"seed": seed, "theta": res.Theta})
		}
	}
	ph.stats = m.finish()
	return ph
}

// overheadPct is the traced median latency's excess over the untraced one,
// in percent.
func overheadPct(plain, traced []float64) float64 {
	base := percentile(plain, 50)
	return 100 * per(percentile(traced, 50)-base, base)
}
