package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// atomicFloat is a lock-free float64 cell (CAS over the bit pattern).
// Prometheus sample values are float64, so instruments store floats
// natively instead of round-tripping through integer micros.
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) store(v float64) { f.bits.Store(math.Float64bits(v)) }
func (f *atomicFloat) load() float64   { return math.Float64frombits(f.bits.Load()) }

func (f *atomicFloat) storeMax(v float64) {
	for {
		old := f.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if f.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Counter is a monotone instrument. The zero value is usable, so
// subsystems can hold counters without a registry (tests construct them
// bare); registering is what makes a counter visible on /metrics.
type Counter struct{ v atomicFloat }

// Add increases the counter; negative deltas are ignored (counters are
// monotone by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	c.v.add(v)
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return c.v.load()
}

// Int returns the count as an int64 (counts are integers in practice;
// /v1/stats fields are int64).
func (c *Counter) Int() int64 { return int64(c.Value()) }

// Gauge is a settable instrument (may go up and down).
type Gauge struct{ v atomicFloat }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v.store(v)
}

// Add adjusts the gauge by v (either sign).
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	g.v.add(v)
}

// SetMax raises the gauge to v if v is larger — the high-watermark
// pattern (max request latency, max repair time).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	g.v.storeMax(v)
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v.load()
}

// Int returns the value as an int64.
func (g *Gauge) Int() int64 { return int64(g.Value()) }

// LatencyBuckets are the fixed histogram bounds (milliseconds) used for
// request, tier, and phase latencies: roughly logarithmic from 50µs to
// 10s, covering the fast tier's microseconds and a worst-case RIS query
// alike. Fixed buckets make latencies aggregable across scrapes and
// across servers.
var LatencyBuckets = []float64{
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000,
}

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound (plus +Inf) and a running sum. The zero value is NOT usable —
// buckets must be set — so histograms are built by NewHistogram or the
// registry.
type Histogram struct {
	bounds []float64 // ascending upper bounds, +Inf implicit
	counts []atomic.Int64
	sum    atomicFloat
}

// NewHistogram builds a histogram over the given ascending upper bounds
// (nil selects LatencyBuckets).
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending: %v", bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.sum.add(v)
}

// HistogramSnapshot is a point-in-time read of a histogram: cumulative
// counts per bound (ending with the +Inf total), the total count, and the
// sum of observations.
type HistogramSnapshot struct {
	Bounds     []float64
	Cumulative []int64
	Count      int64
	Sum        float64
}

// Snapshot reads the histogram. Bucket reads are individually atomic (the
// usual Prometheus consistency contract: a scrape racing observations may
// be off by in-flight increments).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	snap := HistogramSnapshot{Bounds: h.bounds, Cumulative: make([]int64, len(h.counts))}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		snap.Cumulative[i] = cum
	}
	snap.Count = cum
	snap.Sum = h.sum.load()
	return snap
}

// Quantile estimates the q-quantile (0 <= q <= 1) as the upper bound of
// the bucket holding the observation of rank ⌈q·Count⌉ (at least 1), so
// it overstates the true quantile by at most that bucket's width. It
// returns 0 for an empty histogram. A rank in the +Inf bucket reads as
// the largest finite bound: the estimate stays encodable as JSON, and
// what it hides is only that some observations exceeded every bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := max(int64(math.Ceil(q*float64(s.Count))), 1)
	i := sort.Search(len(s.Bounds), func(i int) bool { return s.Cumulative[i] >= rank })
	return s.Bounds[min(i, len(s.Bounds)-1)]
}

// Count is the total number of observations.
func (h *Histogram) Count() int64 { return h.Snapshot().Count }

// Sum is the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.load()
}

// metric type names, as rendered on # TYPE lines.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// series is one labeled instance within a family: exactly one of the
// instrument fields is set. fn-backed series read an external source of
// truth at scrape time — the pattern for mirroring counters that already
// live elsewhere (the admission gate, the sampler pools) without moving
// them.
type series struct {
	labelValues []string
	c           *Counter
	g           *Gauge
	h           *Histogram
	fn          func() float64
}

// family is one metric name: its metadata and all labeled series.
type family struct {
	name, help string
	typ        string
	labelNames []string
	buckets    []float64

	mu     sync.Mutex
	series map[string]*series
}

func (f *family) get(values []string, build func() *series) *series {
	if len(values) != len(f.labelNames) {
		panic(fmt.Sprintf("obs: metric %s wants labels %v, got values %v", f.name, f.labelNames, values))
	}
	key := strings.Join(values, "\x1f")
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[key]
	if s == nil {
		s = build()
		s.labelValues = append([]string(nil), values...)
		f.series[key] = s
	}
	return s
}

// Registry holds metric families and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use. Metric and
// label names are the caller's responsibility to keep Prometheus-legal
// ([a-zA-Z_:][a-zA-Z0-9_:]*); registering the same name with a different
// type or label set panics (a programming error, caught at startup).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	onScrape []func()
}

// OnScrape registers a hook invoked at the start of every
// WritePrometheus call, before any family is rendered. Hooks refresh
// state that is expensive to keep current continuously (e.g. one
// runtime.ReadMemStats feeding several instruments). They run outside
// the registry lock and must be safe for concurrent use.
func (r *Registry) OnScrape(fn func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onScrape = append(r.onScrape, fn)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{
			name: name, help: help, typ: typ,
			labelNames: append([]string(nil), labels...),
			buckets:    buckets,
			series:     make(map[string]*series, 1),
		}
		r.families[name] = f
		return f
	}
	if f.typ != typ || len(f.labelNames) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s%v (was %s%v)", name, typ, labels, f.typ, f.labelNames))
	}
	for i := range labels {
		if f.labelNames[i] != labels[i] {
			panic(fmt.Sprintf("obs: metric %s re-registered with labels %v (was %v)", name, labels, f.labelNames))
		}
	}
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.family(name, help, typeCounter, nil, nil)
	return f.get(nil, func() *series { return &series{c: &Counter{}} }).c
}

// CounterVec registers a counter family with the given label names.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{f: r.family(name, help, typeCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.get(values, func() *series { return &series{c: &Counter{}} }).c
}

// Each visits every series of the family.
func (v *CounterVec) Each(fn func(labels []string, c *Counter)) {
	v.f.mu.Lock()
	all := make([]*series, 0, len(v.f.series))
	for _, s := range v.f.series {
		all = append(all, s)
	}
	v.f.mu.Unlock()
	for _, s := range all {
		fn(s.labelValues, s.c)
	}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.family(name, help, typeGauge, nil, nil)
	return f.get(nil, func() *series { return &series{g: &Gauge{}} }).g
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{f: r.family(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.get(values, func() *series { return &series{g: &Gauge{}} }).g
}

// Func installs a gauge series for the given label values whose value
// is read from fn at scrape time — the labeled mirror pattern (e.g.
// one ledger-backed capacity gauge per dataset/component pair). The
// first registration for a label-value tuple wins; installing Func
// over an existing mutable series (or vice versa) is a no-op on the
// existing series.
func (v *GaugeVec) Func(fn func() float64, values ...string) {
	v.f.get(values, func() *series { return &series{fn: fn} })
}

// Histogram registers (or fetches) an unlabeled histogram over bounds
// (nil selects LatencyBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	f := r.family(name, help, typeHistogram, nil, bounds)
	return f.get(nil, func() *series { return &series{h: NewHistogram(f.buckets)} }).h
}

// HistogramVec is a labeled histogram family; every series shares the
// family's bounds.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{f: r.family(name, help, typeHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.get(values, func() *series { return &series{h: NewHistogram(v.f.buckets)} }).h
}

// CounterFunc registers a counter whose value is read from f at scrape
// time — the mirror pattern for monotone counts whose source of truth
// lives in another subsystem (pool stats, the admission gate). f must be
// monotone non-decreasing and safe for concurrent calls.
func (r *Registry) CounterFunc(name, help string, f func() float64) {
	fam := r.family(name, help, typeCounter, nil, nil)
	fam.get(nil, func() *series { return &series{fn: f} })
}

// GaugeFunc registers a gauge read from f at scrape time.
func (r *Registry) GaugeFunc(name, help string, f func() float64) {
	fam := r.family(name, help, typeGauge, nil, nil)
	fam.get(nil, func() *series { return &series{fn: f} })
}
