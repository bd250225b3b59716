// Command perfbench is the repository's end-to-end benchmark. It drives
// three workloads through public entry points only — tim.MaximizeContext
// for the library and (*server.Server).ServeHTTP, called in-process, for the
// service — checks every answer, and prints one JSON result as the last
// line of its output:
//
//	bash perfbench/run.sh --workload offline --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the result holds the end_to_end metrics of BENCHMARK.json,
// measured with tracing off. With --trace 1 the benchmark sends the first
// half of the workload's requests twice in one process, untraced and then
// traced, reports the per_layer metrics, and writes every span to a trace
// file under .bench_build/perfbench. workloads.json, embedded at build
// time, holds every workload parameter and what each per-layer metric
// should move.
//
// The benchmark reads BENCHMARK.json from the working directory for the
// metric names and units it must report, so run it from the repository
// root. It runs on Linux, where it can pace requests precisely.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

//go:embed workloads.json
var workloadsJSON []byte

// config is the part of workloads.json the benchmark executes; the rest of
// the file documents the workloads and metrics.
type config struct {
	DefaultSeed uint64                    `json:"default_seed"`
	GOMAXPROCS  int                       `json:"gomaxprocs"`
	ServerSeed  uint64                    `json:"server_seed"`
	Workloads   map[string]workloadParams `json:"workloads"`
}

type workloadParams struct {
	Dataset           datasetParams `json:"dataset"`
	K                 []int         `json:"k"`
	Epsilon           float64       `json:"epsilon"`
	BudgetMs          float64       `json:"budget_ms"`
	Workers           int           `json:"workers"`
	SetupReps         int           `json:"setup_reps"`
	MaxInFlight       int           `json:"max_in_flight"`
	RequestsPerSecond float64       `json:"requests_per_second"`
	UpdateShare       float64       `json:"update_share"`
	UpdateDeletes     int           `json:"update_deletes"`
	UpdateInserts     int           `json:"update_inserts"`
	ExcludeShare      float64       `json:"exclude_share"`
	ExcludeMax        int           `json:"exclude_max"`
	ExcludePool       int           `json:"exclude_pool"`
	WarmupQueries     int           `json:"warmup_queries"`
	AnswerHash        *answerHash   `json:"answer_hash"`
}

type datasetParams struct {
	Profile string `json:"profile"`
	Scale   string `json:"scale"`
	Nodes   int    `json:"nodes"`
	Seed    uint64 `json:"seed"`
}

// answerHash pins the FNV-1a hash of the first Answers answers, in request
// order, for workload seed Seed. Answers are bit-identical across worker
// counts, warm and cold, and traced and untraced, so the hash only moves
// when an answer does.
type answerHash struct {
	Seed    uint64 `json:"seed"`
	Answers int    `json:"answers"`
	FNV     string `json:"fnv1a64"`
}

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchmarkSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// bench is one invocation: a workload, its inputs' seed, and the mode.
type bench struct {
	cfg     config
	p       workloadParams
	name    string
	seed    uint64
	seconds int
	traced  bool
}

// run is an invocation's outcome: the metrics by name, the operation
// accounting, the correctness problems found, and the report lines printed
// beside the metrics.
type run struct {
	attempted, failed int
	problems          []string
	metrics           map[string]float64
	report            []string
	spans             *spanLog // nil unless traced
}

// maxProblems bounds the problem messages kept; every problem still counts.
const maxProblems = 20

func (r *run) problem(format string, args ...any) {
	if len(r.problems) == maxProblems {
		r.problems = append(r.problems, "(further problems not shown)")
	}
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) reportf(format string, args ...any) {
	r.report = append(r.report, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var cfg config
	if err := json.Unmarshal(workloadsJSON, &cfg); err != nil {
		fail(fmt.Errorf("workloads.json: %w", err))
	}
	workload := flag.String("workload", "", "offline, serve-live or serve-light")
	seed := flag.Uint64("seed", cfg.DefaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 30, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from an untraced and a traced phase")
	flag.Parse()
	p, ok := cfg.Workloads[*workload]
	if !ok {
		fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("want --seconds >= 1 and --trace 0 or 1"))
	}
	if err := mainErr(&bench{cfg: cfg, p: p, name: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1}); err != nil {
		fail(err)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func mainErr(b *bench) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	runtime.GOMAXPROCS(b.cfg.GOMAXPROCS)

	var r *run
	if b.name == "offline" {
		r, err = b.offline()
	} else {
		r, err = b.serve()
	}
	if err != nil {
		return err
	}

	want := spec.EndToEnd
	if b.traced {
		want = spec.PerLayer
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	for _, m := range want {
		v, ok := r.metrics[m.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json names metric %q, which %s does not compute", m.Name, b.name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if r.attempted < 1 {
		return fmt.Errorf("no operation attempted")
	}

	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%t\n", b.name, b.seed, b.seconds, b.traced)
	for _, line := range r.report {
		fmt.Println("  " + line)
	}
	for _, p := range r.problems {
		fmt.Println("  PROBLEM: " + p)
	}
	if r.spans != nil {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", b.name, b.seed))
		if err := r.spans.write(path, b.name, b.seed); err != nil {
			return err
		}
		fmt.Println("  trace file: " + path)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
