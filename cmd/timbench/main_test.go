package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestQuickBenchRoundTrip: a quick run writes a schema-valid BENCH.json
// whose runs are bit-identical and whose speedup fields are populated.
func TestQuickBenchRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("quick bench still samples tens of thousands of RR sets")
	}
	out := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(0, 0, "ic", 0, 0, 1, 3, true, false, out); err != nil {
		t.Fatal(err)
	}
	if err := validateFile(out); err != nil {
		t.Fatalf("self-emitted file fails validation: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var f BenchFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if !f.BitIdentical {
		t.Fatal("parallel run diverged from Workers=1")
	}
	if len(f.Runs) != 2 || f.Runs[0].Workers != 1 || f.Runs[1].Workers != 3 {
		t.Fatalf("runs: %+v", f.Runs)
	}
	if f.Config.Quick != true || f.Config.Theta != 20_000 {
		t.Fatalf("quick config not applied: %+v", f.Config)
	}
}

// TestCompareFiles: the -against regression check accepts runs within
// tolerance, rejects slow phases, and refuses mismatched instances.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	mk := func(name string, sampleNs, greedyNs, countNs int64, n int) string {
		f := BenchFile{
			Version:      1,
			GeneratedBy:  "timbench",
			Config:       BenchConfig{N: n, M: 10, Model: "ic", Theta: 100, K: 5, Seed: 1, Workers: 1, Cores: 1},
			BitIdentical: true,
			Runs: []BenchRun{{
				Workers: 1, SampleNs: sampleNs, GreedyNs: greedyNs, CountCoveredNs: countNs,
				SelectNs: greedyNs + countNs, TotalNs: sampleNs + greedyNs + countNs,
				PeakRRBytes: 1, CollectionBytes: 1,
			}},
		}
		data, err := json.Marshal(&f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	base := mk("base.json", 1000, 500, 300, 100)
	if err := compareFiles(mk("same.json", 1100, 550, 330, 100), base, 0.25); err != nil {
		t.Fatalf("within-tolerance run rejected: %v", err)
	}
	err := compareFiles(mk("slow.json", 2000, 500, 300, 100), base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "sample") {
		t.Fatalf("2x sample regression: %v", err)
	}
	// A single slow phase fails even when total stays inside tolerance.
	err = compareFiles(mk("phase.json", 900, 800, 200, 100), base, 0.25)
	if err == nil || !strings.Contains(err.Error(), "greedy") {
		t.Fatalf("greedy-only regression: %v", err)
	}
	if err := compareFiles(mk("othern.json", 1000, 500, 300, 999), base, 0.25); err == nil {
		t.Fatal("mismatched instances compared")
	}
}

// TestCommittedBaselinesValidate: the committed baselines CI compares
// against stay schema-valid, retired memory section included.
func TestCommittedBaselinesValidate(t *testing.T) {
	for _, name := range []string{"BENCH_0001.json", "BENCH_0002.json"} {
		if err := validateFile(filepath.Join("..", "..", name)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestValidateRejects: structurally broken files fail with pointed
// errors.
func TestValidateRejects(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"bad version":    `{"version":2,"generated_by":"timbench","config":{},"runs":[],"speedup":{},"memory":{},"bit_identical":true}`,
		"no runs":        `{"version":1,"generated_by":"timbench","config":{},"runs":[],"speedup":{},"memory":{},"bit_identical":true}`,
		"not identical":  `{"version":1,"generated_by":"timbench","config":{},"runs":[{"workers":1,"sample_ns":1,"greedy_ns":1,"count_covered_ns":1,"select_ns":2,"total_ns":3,"peak_rr_bytes":1,"collection_bytes":1}],"speedup":{},"memory":{"zero_copy_peak_bytes":1,"merge_baseline_peak_bytes":2,"reduction":0.5},"bit_identical":false}`,
		"unknown fields": `{"version":1,"generated_by":"timbench","bogus":1}`,
		"not json":       `hello`,
	}
	i := 0
	for name, content := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(name, " ", "_")+".json")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := validateFile(path); err == nil {
			t.Fatalf("%s: validation passed, want failure", name)
		}
		i++
	}
	if err := validateFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file: validation passed")
	}
}
