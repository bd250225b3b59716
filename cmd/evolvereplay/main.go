// Command evolvereplay replays an edge-mutation stream against the
// influence-maximization pipeline and measures what the evolving-graph
// subsystem (internal/evolve) buys: per-batch incremental-repair latency
// (p50/p99), the incremental-vs-cold-resample speedup, the fraction of RR
// sets each batch really perturbs, and the churn of the selected seed set
// as the graph drifts.
//
// The stream is either synthetic — random edge inserts/deletes (and
// optional node growth) generated against the live graph — or a
// timestamped file replayed faithfully:
//
//	# timestamp op from to   (op is + or -; equal timestamps form one batch)
//	10 + 3 17
//	10 - 5 2
//	11 + 99 4
//
// Every -cold-every batches the maintained collection is checked
// bit-for-bit against a cold resample on the current snapshot — the
// subsystem's core guarantee — and the cold timing anchors the speedup.
//
// Example:
//
//	evolvereplay -profile nethept -scale tiny -k 20 -batches 50 -batch-edges 32
//	evolvereplay -graph network.txt -model lt -stream edits.txt -v
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/diffusion"
	"repro/internal/evolve"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/tim"
)

type config struct {
	profile   string
	scale     string
	graphPath string
	model     string
	stream    string
	k         int
	eps       float64
	seed      uint64
	batches   int
	batchEdge int
	growEvery int
	coldEvery int
	trace     bool
	workers   int
	verbose   bool
	out       io.Writer
}

func main() {
	cfg := config{out: os.Stdout}
	flag.StringVar(&cfg.profile, "profile", "nethept", "Table 2 synthetic profile (nethept, epinions, dblp, livejournal, twitter)")
	flag.StringVar(&cfg.scale, "scale", "tiny", "profile scale (tiny, small, full)")
	flag.StringVar(&cfg.graphPath, "graph", "", "edge-list file to load instead of a profile")
	flag.StringVar(&cfg.model, "model", "ic", "diffusion model: ic or lt")
	flag.StringVar(&cfg.stream, "stream", "", "timestamped mutation stream file (overrides synthetic generation)")
	flag.IntVar(&cfg.k, "k", 10, "seed-set size")
	flag.Float64Var(&cfg.eps, "eps", 0.2, "approximation slack epsilon")
	flag.Uint64Var(&cfg.seed, "seed", 1, "master seed (graph generation, sampling, synthetic mutations)")
	flag.IntVar(&cfg.batches, "batches", 12, "synthetic mutation batches to replay")
	flag.IntVar(&cfg.batchEdge, "batch-edges", 8, "edge mutations per synthetic batch (half inserts, half deletes)")
	flag.IntVar(&cfg.growEvery, "grow-every", 0, "add one node every this many synthetic batches (0 = never)")
	flag.IntVar(&cfg.coldEvery, "cold-every", 4, "verify + time a cold resample every this many batches (0 = never)")
	flag.BoolVar(&cfg.trace, "trace", false, "maintain edge provenance and report the membership-risk vs alignment split per batch")
	flag.IntVar(&cfg.workers, "workers", 0, "sampling workers (0 = all cores)")
	flag.BoolVar(&cfg.verbose, "v", false, "per-batch output")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "evolvereplay:", err)
		os.Exit(1)
	}
}

// replayState is the maintained pipeline state the CollectionSource serves
// node selection from.
type replayState struct {
	col  *diffusion.RRCollection
	seed uint64
}

// NodeSelectionSets implements tim.CollectionSource over the maintained
// collection, extending it when θ outgrows it.
func (s *replayState) NodeSelectionSets(ctx context.Context, g *graph.Graph, model diffusion.Model, theta int64, workers int) (*diffusion.RRCollection, error) {
	if err := diffusion.ExtendCollection(ctx, g, model, s.col, theta, s.seed, workers); err != nil {
		return nil, err
	}
	return s.col.Prefix(int(theta)), nil
}

func run(cfg config) error {
	model, err := parseModel(cfg.model)
	if err != nil {
		return err
	}
	g, source, err := buildGraph(cfg, model)
	if err != nil {
		return err
	}
	policy, err := policyFor(model, cfg.seed)
	if err != nil {
		return err
	}
	eg := evolve.New(g, policy, evolve.Options{})
	snap, version := eg.Snapshot()
	fmt.Fprintf(cfg.out, "evolvereplay: dataset=%s model=%s n=%d m=%d k=%d eps=%g\n",
		source, model, snap.N(), snap.M(), cfg.k, cfg.eps)

	state := &replayState{col: &diffusion.RRCollection{Off: []int64{0}}, seed: cfg.seed ^ 0x9e3779b97f4a7c15}
	opts := tim.Options{K: cfg.k, Epsilon: cfg.eps, Workers: cfg.workers, Seed: cfg.seed, Source: state}
	ctx := context.Background()

	res, err := tim.MaximizeContext(ctx, snap, model, opts)
	if err != nil {
		return err
	}
	prevSeeds := res.Seeds
	fmt.Fprintf(cfg.out, "initial: theta=%d spread~%.1f seeds=%v\n", res.Theta, res.SpreadEstimate, res.Seeds)

	var traces *diffusion.TraceCollection
	if cfg.trace {
		traces = retrace(snap, model, state, nil, nil)
	}

	batches, err := loadBatches(cfg, eg)
	if err != nil {
		return err
	}

	var (
		repairMs    []float64
		coldMs      []float64
		repairedTot int64
		keptTot     int64
		riskTot     int
		jaccards    []float64
		coldChecks  int
	)
	for step, b := range batches {
		nBefore := eg.N()
		if _, err := eg.Apply(b); err != nil {
			return fmt.Errorf("batch %d: %w", step+1, err)
		}
		delta, ok := eg.DeltaSince(version)
		if !ok {
			return fmt.Errorf("batch %d: delta log exhausted", step+1)
		}
		newSnap, newVersion := eg.Snapshot()

		var imp evolve.Impact
		var affected []int32
		if cfg.trace {
			// The previous maximize may have extended the collection;
			// trace the new tail (sampled on the pre-batch snapshot)
			// before judging the batch's impact.
			traces = retrace(snap, model, state, traces, nil)
			imp = evolve.DeltaImpact(state.col, traces, b, nBefore, eg.N(), state.seed)
			riskTot += imp.MembershipRisk
			// Computed against the pre-repair membership — the same sets
			// Repair is about to re-derive — so the trace arena can be
			// patched instead of rebuilt.
			affected, _ = evolve.AffectedSets(state.col, delta, state.seed)
		}

		t0 := time.Now()
		newCol, stats, err := evolve.Repair(ctx, newSnap, model, state.col, delta, state.seed, cfg.workers)
		if err != nil {
			return fmt.Errorf("batch %d: repair: %w", step+1, err)
		}
		ms := float64(time.Since(t0).Microseconds()) / 1000
		repairMs = append(repairMs, ms)
		repairedTot += stats.Repaired
		keptTot += stats.Reused
		state.col = newCol
		snap, version = newSnap, newVersion

		if cfg.trace {
			traces = retrace(snap, model, state, traces, affected)
		}

		res, err := tim.MaximizeContext(ctx, snap, model, opts)
		if err != nil {
			return fmt.Errorf("batch %d: maximize: %w", step+1, err)
		}
		j := jaccard(prevSeeds, res.Seeds)
		jaccards = append(jaccards, j)
		prevSeeds = res.Seeds

		var coldNote string
		if cfg.coldEvery > 0 && (step+1)%cfg.coldEvery == 0 {
			t1 := time.Now()
			cold := &diffusion.RRCollection{Off: []int64{0}}
			if err := diffusion.ExtendCollection(ctx, snap, model, cold, int64(state.col.Count()), state.seed, cfg.workers); err != nil {
				return err
			}
			cms := float64(time.Since(t1).Microseconds()) / 1000
			coldMs = append(coldMs, cms)
			if err := compareCollections(state.col, cold); err != nil {
				return fmt.Errorf("batch %d: repaired collection diverged from cold sample: %w", step+1, err)
			}
			coldChecks++
			coldNote = fmt.Sprintf(" cold=%.1fms speedup=%.1fx", cms, cms/ms)
		}
		if cfg.verbose {
			traceNote := ""
			if cfg.trace {
				traceNote = fmt.Sprintf(" risk=%d align-only=%d", imp.MembershipRisk, imp.AlignmentOnly)
			}
			fmt.Fprintf(cfg.out, "batch %3d: v=%d n=%d m=%d repaired=%d/%d repair=%.1fms theta=%d jaccard=%.2f%s%s\n",
				step+1, version, snap.N(), snap.M(), stats.Repaired, stats.Sets, ms, res.Theta, j, traceNote, coldNote)
		}
	}

	fmt.Fprintf(cfg.out, "replayed %d batches to version %d (n=%d m=%d, collection %d sets)\n",
		len(batches), version, snap.N(), snap.M(), state.col.Count())
	if len(repairMs) > 0 {
		total := repairedTot + keptTot
		fmt.Fprintf(cfg.out, "repair latency: p50=%.1fms p99=%.1fms mean=%.1fms\n",
			percentile(repairMs, 0.50), percentile(repairMs, 0.99), mean(repairMs))
		fmt.Fprintf(cfg.out, "sets repaired: %d of %d examined (%.2f%%)\n",
			repairedTot, total, 100*float64(repairedTot)/float64(max64(total, 1)))
	}
	if cfg.trace {
		fmt.Fprintf(cfg.out, "membership-risk sets (provenance bound): %d vs %d re-derived for stream alignment\n",
			riskTot, repairedTot)
	}
	if len(coldMs) > 0 {
		fmt.Fprintf(cfg.out, "cold resample: mean=%.1fms -> mean speedup %.1fx (%d checks, all bit-identical)\n",
			mean(coldMs), mean(coldMs)/mean(repairMs), coldChecks)
	}
	if len(jaccards) > 0 {
		fmt.Fprintf(cfg.out, "seed churn: mean jaccard %.2f, min %.2f\n", mean(jaccards), minOf(jaccards))
	}
	return nil
}

// retrace (re)builds the provenance arena: with affected == nil the whole
// collection is traced from its keyed streams; otherwise only the listed
// sets are re-traced and the rest copied over.
func retrace(g *graph.Graph, model diffusion.Model, state *replayState, old *diffusion.TraceCollection, affected []int32) *diffusion.TraceCollection {
	sampler := diffusion.NewRRSampler(g, model)
	base := rng.New(state.seed)
	var stream rng.Rand
	out := &diffusion.TraceCollection{Off: []int64{0}}
	var buf []uint32
	var tbuf []diffusion.TraceEdge
	redo := make(map[int32]bool, len(affected))
	for _, i := range affected {
		redo[i] = true
	}
	for i := 0; i < state.col.Count(); i++ {
		if old != nil && i < old.Count() && !redo[int32(i)] {
			out.Append(old.Set(i))
			continue
		}
		base.SplitInto(uint64(i), &stream)
		buf, tbuf = sampler.SampleTraced(&stream, buf[:0], tbuf[:0])
		out.Append(tbuf)
	}
	return out
}

func buildGraph(cfg config, model diffusion.Model) (*graph.Graph, string, error) {
	var g *graph.Graph
	var source string
	if cfg.graphPath != "" {
		f, err := os.Open(cfg.graphPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err = graph.ReadEdgeList(f, false)
		if err != nil {
			return nil, "", err
		}
		source = cfg.graphPath
	} else {
		p, err := gen.ProfileByName(cfg.profile)
		if err != nil {
			return nil, "", err
		}
		scale, err := gen.ParseScale(cfg.scale)
		if err != nil {
			return nil, "", err
		}
		g = p.Generate(scale, cfg.seed)
		source = fmt.Sprintf("profile:%s:%s", cfg.profile, cfg.scale)
	}
	switch model.Kind() {
	case diffusion.IC:
		graph.AssignWeightedCascade(g)
	case diffusion.LT:
		graph.AssignRandomNormalizedLTKeyed(g, cfg.seed+1)
	}
	return g, source, nil
}

func policyFor(model diffusion.Model, seed uint64) (evolve.WeightPolicy, error) {
	switch model.Kind() {
	case diffusion.IC:
		return evolve.WeightedCascade{}, nil
	case diffusion.LT:
		return evolve.NewKeyedNormalizedLT(seed + 1), nil
	}
	return nil, fmt.Errorf("no weight policy for model %v", model)
}

func parseModel(name string) (diffusion.Model, error) {
	switch strings.ToLower(name) {
	case "", "ic":
		return diffusion.NewIC(), nil
	case "lt":
		return diffusion.NewLT(), nil
	}
	return diffusion.Model{}, fmt.Errorf("unknown model %q (want ic or lt)", name)
}

// loadBatches either parses the -stream file or synthesizes cfg.batches
// random batches against the evolving graph's current state.
func loadBatches(cfg config, eg *evolve.Graph) ([]evolve.Batch, error) {
	if cfg.stream != "" {
		return parseStream(cfg.stream, eg.N())
	}
	r := rng.New(cfg.seed + 2)
	batches := make([]evolve.Batch, 0, cfg.batches)
	// Mutations are generated against a mirror of the live edge list so
	// deletes always name real edges even before the batches are applied.
	edges := eg.Edges()
	n := eg.N()
	for i := 0; i < cfg.batches; i++ {
		var b evolve.Batch
		if cfg.growEvery > 0 && (i+1)%cfg.growEvery == 0 {
			b.AddNodes = 1
		}
		for j := 0; j < cfg.batchEdge; j++ {
			if j%2 == 0 || len(edges) == 0 {
				e := graph.Edge{From: uint32(r.Intn(n)), To: uint32(r.Intn(n)), Weight: 0.5}
				b.Inserts = append(b.Inserts, e)
				edges = append(edges, e)
			} else {
				pick := r.Intn(len(edges))
				v := edges[pick]
				b.Deletes = append(b.Deletes, evolve.EdgeKey{From: v.From, To: v.To})
				// Mirror Delete's latest-occurrence semantics.
				for q := len(edges) - 1; q >= 0; q-- {
					if edges[q].From == v.From && edges[q].To == v.To {
						edges = append(edges[:q], edges[q+1:]...)
						break
					}
				}
			}
		}
		n += b.AddNodes
		batches = append(batches, b)
	}
	return batches, nil
}

// parseStream reads "timestamp op from to" lines; equal timestamps form
// one batch, and endpoints beyond the current node count imply growth.
func parseStream(path string, n int) ([]evolve.Batch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	var batches []evolve.Batch
	var cur *evolve.Batch
	lastT := ""
	lineNo := 0
	curN := n // node count as of the batch being assembled
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 4 {
			return nil, fmt.Errorf("%s:%d: want \"timestamp op from to\", got %q", path, lineNo, line)
		}
		from, err1 := strconv.ParseUint(fields[2], 10, 32)
		to, err2 := strconv.ParseUint(fields[3], 10, 32)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("%s:%d: bad endpoints in %q", path, lineNo, line)
		}
		if fields[0] != lastT || cur == nil {
			if cur != nil {
				curN += cur.AddNodes
			}
			batches = append(batches, evolve.Batch{})
			cur = &batches[len(batches)-1]
			lastT = fields[0]
		}
		for _, id := range []uint64{from, to} {
			if m := int(id) + 1; m > curN+cur.AddNodes {
				cur.AddNodes = m - curN
			}
		}
		switch fields[1] {
		case "+":
			cur.Inserts = append(cur.Inserts, graph.Edge{From: uint32(from), To: uint32(to), Weight: 0.5})
		case "-":
			cur.Deletes = append(cur.Deletes, evolve.EdgeKey{From: uint32(from), To: uint32(to)})
		default:
			return nil, fmt.Errorf("%s:%d: op %q is not + or -", path, lineNo, fields[1])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return batches, nil
}

// compareCollections reports the first divergence between a repaired and
// a cold-sampled collection.
func compareCollections(got, want *diffusion.RRCollection) error {
	if got.Count() != want.Count() || got.TotalNodes() != want.TotalNodes() {
		return fmt.Errorf("shape: %d sets of %d nodes vs %d sets of %d nodes",
			got.Count(), got.TotalNodes(), want.Count(), want.TotalNodes())
	}
	for i := range want.Off {
		if got.Off[i] != want.Off[i] {
			return fmt.Errorf("offset %d: %d vs %d", i, got.Off[i], want.Off[i])
		}
	}
	for i := range want.Flat {
		if got.Flat[i] != want.Flat[i] {
			return fmt.Errorf("member %d: %d vs %d", i, got.Flat[i], want.Flat[i])
		}
	}
	return nil
}

func jaccard(a, b []uint32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	setA := make(map[uint32]bool, len(a))
	for _, v := range a {
		setA[v] = true
	}
	inter := 0
	for _, v := range b {
		if setA[v] {
			inter++
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
}

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
