package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/internal/diffusion"
	"repro/internal/maxcover"
)

// percentile is the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// latencyNote describes a latency sample, warning when it is too small
// for its p90 to have ten samples beyond it.
func latencyNote(xs []float64) string {
	note := fmt.Sprintf("p50=%.3fms p90=%.3fms p95=%.3fms p99=%.3fms max=%.3fms n=%d",
		percentile(xs, 50), percentile(xs, 90), percentile(xs, 95), percentile(xs, 99), percentile(xs, 100), len(xs))
	if len(xs) < 100 {
		note += " (fewer than 10 samples beyond p90: run longer)"
	}
	return note
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// per is x/n, or 0 when n is 0 (a layer a workload never reaches).
func per(x, n float64) float64 {
	if n == 0 {
		return 0
	}
	return x / n
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// setupAround runs a workload's setup reps, each from a collected heap,
// around its timed phase: half before it, the last of which the phase
// runs on, and the rest after it. setup_s is the median rep time, so it
// samples the host at two moments half a minute apart rather than one.
func setupAround[T any](reps int, setup func() (T, error), phase func(T) error) (float64, error) {
	var times []float64
	rep := func() (T, error) {
		runtime.GC()
		t0 := time.Now()
		v, err := setup()
		times = append(times, time.Since(t0).Seconds())
		return v, err
	}
	var state, zero T
	before := max(1, reps/2)
	for i := 0; i < before; i++ {
		state = zero // let the previous rep's state be collected
		var err error
		if state, err = rep(); err != nil {
			return 0, err
		}
	}
	runtime.GC()
	if err := phase(state); err != nil {
		return 0, err
	}
	state = zero
	for i := before; i < reps; i++ {
		if _, err := rep(); err != nil {
			return 0, err
		}
	}
	return percentile(times, 50), nil
}

// meter measures one timed phase: wall and CPU time, bytes allocated,
// sampler and scratch pool reuse, and the live heap each GC cycle left.
// It polls runtime/metrics every 5 ms, which does not stop the world.
type meter struct {
	start                      time.Time
	cpu0                       time.Duration
	alloc0                     uint64
	samplerHits0, samplerMiss0 int64
	scratchHits0, scratchMiss0 int64
	stop, done                 chan struct{}
	gcs                        uint64
	liveMiB                    []float64
}

type phaseStats struct {
	wall, cpu       time.Duration
	allocBytes      uint64
	samplerHitRatio float64
	scratchHitRatio float64
	// liveMiB holds the live heap after each GC cycle that ended in the
	// phase (the live heap at its end when no cycle did).
	liveMiB []float64
}

const (
	liveHeapMetric = "/gc/heap/live:bytes"
	gcCyclesMetric = "/gc/cycles/total:gc-cycles"
	allocMetric    = "/gc/heap/allocs:bytes"
)

func startMeter() *meter {
	m := &meter{stop: make(chan struct{}), done: make(chan struct{})}
	m.samplerHits0, m.samplerMiss0 = diffusion.SamplerPoolStats()
	m.scratchHits0, m.scratchMiss0 = maxcover.ScratchPoolStats()
	m.alloc0 = readUint64(allocMetric)
	m.gcs = readUint64(gcCyclesMetric)
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if c := readUint64(gcCyclesMetric); c != m.gcs {
					m.gcs = c
					m.liveMiB = append(m.liveMiB, float64(readUint64(liveHeapMetric))/(1<<20))
				}
			}
		}
	}()
	m.cpu0 = cpuTime()
	m.start = time.Now()
	return m
}

func (m *meter) finish() phaseStats {
	wall := time.Since(m.start)
	cpu := cpuTime() - m.cpu0
	close(m.stop)
	<-m.done
	if len(m.liveMiB) == 0 {
		m.liveMiB = append(m.liveMiB, float64(readUint64(liveHeapMetric))/(1<<20))
	}
	sh, sm := diffusion.SamplerPoolStats()
	ch, cm := maxcover.ScratchPoolStats()
	sh, sm, ch, cm = sh-m.samplerHits0, sm-m.samplerMiss0, ch-m.scratchHits0, cm-m.scratchMiss0
	return phaseStats{
		wall:            wall,
		cpu:             cpu,
		allocBytes:      readUint64(allocMetric) - m.alloc0,
		samplerHitRatio: per(float64(sh), float64(sh+sm)),
		scratchHitRatio: per(float64(ch), float64(ch+cm)),
		liveMiB:         m.liveMiB,
	}
}

// heapNote describes the live heap over the phase's GC cycles.
func (st phaseStats) heapNote() string {
	return fmt.Sprintf("live heap after each GC cycle: p50=%.2fMiB p90=%.2fMiB max=%.2fMiB (n=%d cycles)",
		percentile(st.liveMiB, 50), percentile(st.liveMiB, 90), percentile(st.liveMiB, 100), len(st.liveMiB))
}

// checkSeeds returns what is wrong with an answer ("" when nothing): it
// must hold k distinct in-range seeds, none of them excluded.
func checkSeeds(seeds []uint32, k, n int, exclude []uint32) string {
	if len(seeds) != k {
		return fmt.Sprintf("%d seeds, want k=%d", len(seeds), k)
	}
	seen := make(map[uint32]bool, len(seeds))
	for _, s := range seeds {
		switch {
		case int(s) >= n:
			return fmt.Sprintf("seed %d outside [0, %d)", s, n)
		case seen[s]:
			return fmt.Sprintf("seed %d repeated", s)
		case slices.Contains(exclude, s):
			return fmt.Sprintf("excluded node %d picked", s)
		}
		seen[s] = true
	}
	return ""
}

// hashAnswers is the FNV-1a hash of the answers in order, each written as
// its length and its seeds, little-endian uint32s.
func hashAnswers(answers [][]uint32) string {
	h := fnv.New64a()
	var buf [4]byte
	for _, a := range answers {
		binary.LittleEndian.PutUint32(buf[:], uint32(len(a)))
		h.Write(buf[:])
		for _, s := range a {
			binary.LittleEndian.PutUint32(buf[:], s)
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkHash hashes the first answers of the run; with the seed the hash in
// workloads.json was recorded for, a different hash is a problem.
func (b *bench) checkHash(r *run, answers [][]uint32) {
	h := b.p.AnswerHash
	if h == nil {
		return
	}
	if len(answers) < h.Answers {
		r.reportf("answer hash: not checked (%d answers, the hash covers the first %d)", len(answers), h.Answers)
		return
	}
	got := hashAnswers(answers[:h.Answers])
	switch {
	case b.seed != h.Seed || h.FNV == "":
		r.reportf("answer hash of the first %d answers: %s", h.Answers, got)
	case got != h.FNV:
		r.problem("answer hash of the first %d answers is %s, workloads.json records %s for seed %d", h.Answers, got, h.FNV, h.Seed)
	default:
		r.reportf("answer hash of the first %d answers: %s, equal to the recorded one", h.Answers, got)
	}
}
