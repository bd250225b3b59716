package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" {
		t.Fatalf("nil trace ID = %q", tr.ID())
	}
	sp := tr.StartSpan("x")
	sp.Attr("k", 1)
	sp.End()
	tr.SetAttr("k", 1)
	tr.Finish()
	if tr.ElapsedMs() != 0 {
		t.Fatalf("nil trace elapsed = %v", tr.ElapsedMs())
	}
	snap := tr.Snapshot()
	if snap.ID != "" || len(snap.Spans) != 0 {
		t.Fatalf("nil trace snapshot = %+v", snap)
	}
	tr.SpanDurations(func(string, float64) { t.Fatal("SpanDurations visited on nil trace") })

	// Context plumbing: nil trace attaches as a no-op, missing trace reads
	// as nil, nil ctx is tolerated.
	ctx := context.Background()
	if WithTrace(ctx, nil) != ctx {
		t.Fatal("WithTrace(nil) should return ctx unchanged")
	}
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare ctx should be nil")
	}
	if FromContext(nil) != nil {
		t.Fatal("FromContext(nil) should be nil")
	}
	StartSpan(ctx, "y").End() // must not panic
}

func TestTraceSpansAndSnapshot(t *testing.T) {
	tr := NewTrace("req-1")
	tr.SetAttr("endpoint", "maximize")
	tr.SetAttr("endpoint", "batch") // overwrite, not duplicate

	s1 := tr.StartSpan("plan").Attr("tier", "ris").Attr("epsilon", 0.2)
	time.Sleep(2 * time.Millisecond)
	s1.End()
	s2 := tr.StartSpan("select")
	_ = s2 // left open: Finish must close it
	tr.Finish()
	tr.Finish() // idempotent

	snap := tr.Snapshot()
	if snap.ID != "req-1" {
		t.Fatalf("id = %q", snap.ID)
	}
	if got := snap.Attrs["endpoint"]; got != "batch" {
		t.Fatalf("attrs = %v", snap.Attrs)
	}
	if len(snap.Spans) != 2 {
		t.Fatalf("spans = %+v", snap.Spans)
	}
	if snap.Spans[0].Name != "plan" || snap.Spans[0].DurationMs <= 0 {
		t.Fatalf("plan span = %+v", snap.Spans[0])
	}
	if snap.Spans[0].Attrs["epsilon"] != 0.2 {
		t.Fatalf("plan attrs = %v", snap.Spans[0].Attrs)
	}
	if snap.Spans[1].Name != "select" || snap.Spans[1].DurationMs < 0 {
		t.Fatalf("select span = %+v", snap.Spans[1])
	}
	if snap.ElapsedMs <= 0 || tr.ElapsedMs() != snap.ElapsedMs {
		t.Fatalf("elapsed = %v vs %v", snap.ElapsedMs, tr.ElapsedMs())
	}

	var names []string
	tr.SpanDurations(func(name string, ms float64) {
		names = append(names, name)
		if ms < 0 {
			t.Fatalf("negative span duration for %s", name)
		}
	})
	if len(names) != 2 || names[0] != "plan" || names[1] != "select" {
		t.Fatalf("SpanDurations visited %v", names)
	}
}

func TestTraceThroughContext(t *testing.T) {
	tr := NewTrace("ctx-1")
	ctx := WithTrace(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("FromContext should return the attached trace")
	}
	StartSpan(ctx, "phase").End()
	tr.Finish()
	if n := len(tr.Snapshot().Spans); n != 1 {
		t.Fatalf("spans = %d", n)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := NewTrace("conc")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				tr.StartSpan("w").Attr("i", i).End()
			}
		}(i)
	}
	wg.Wait()
	tr.Finish()
	if n := len(tr.Snapshot().Spans); n != 400 {
		t.Fatalf("spans = %d, want 400", n)
	}
}

func TestTraceRing(t *testing.T) {
	if NewTraceRing(0) != nil || NewTraceRing(-1) != nil {
		t.Fatal("non-positive capacity should return nil ring")
	}
	var nilRing *TraceRing
	nilRing.Add(NewTrace("x")) // must not panic
	if _, ok := nilRing.Get("x"); ok {
		t.Fatal("nil ring should miss")
	}
	if nilRing.Slowest(3) != nil || nilRing.Len() != 0 {
		t.Fatal("nil ring should be empty")
	}

	r := NewTraceRing(3)
	for i := 0; i < 5; i++ {
		tr := NewTrace(fmt.Sprintf("t%d", i))
		tr.Finish()
		r.Add(tr)
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	if _, ok := r.Get("t0"); ok {
		t.Fatal("t0 should have been evicted")
	}
	if _, ok := r.Get("t4"); !ok {
		t.Fatal("t4 should be retained")
	}

	// Repeated ids: newest wins, and evicting the older duplicate must not
	// unmap the newer one.
	r2 := NewTraceRing(2)
	a := NewTrace("dup")
	a.Finish()
	b := NewTrace("dup")
	b.Finish()
	r2.Add(a)
	r2.Add(b)
	c := NewTrace("other")
	c.Finish()
	r2.Add(c) // evicts a
	if snap, ok := r2.Get("dup"); !ok || snap.ID != "dup" {
		t.Fatal("newer dup should survive eviction of the older one")
	}
}

func TestTraceRingSlowest(t *testing.T) {
	r := NewTraceRing(10)
	durs := []time.Duration{3 * time.Millisecond, 1 * time.Millisecond, 5 * time.Millisecond}
	for i, d := range durs {
		tr := NewTrace(fmt.Sprintf("s%d", i))
		tr.start = tr.start.Add(-d) // backdate instead of sleeping
		tr.Finish()
		r.Add(tr)
	}
	top := r.Slowest(2)
	if len(top) != 2 || top[0].ID != "s2" || top[1].ID != "s0" {
		ids := make([]string, len(top))
		for i, s := range top {
			ids[i] = s.ID
		}
		t.Fatalf("slowest = %v", ids)
	}
	if top[0].ElapsedMs < top[1].ElapsedMs {
		t.Fatalf("not sorted: %v", top)
	}
	if got := r.Slowest(100); len(got) != 3 {
		t.Fatalf("slowest(100) = %d traces", len(got))
	}
}

func TestCounterGauge(t *testing.T) {
	var c Counter // zero value usable
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotone
	if c.Value() != 3.5 {
		t.Fatalf("counter = %v", c.Value())
	}
	if c.Int() != 3 {
		t.Fatalf("counter int = %v", c.Int())
	}
	var nc *Counter
	nc.Inc() // nil-safe
	if nc.Value() != 0 {
		t.Fatal("nil counter")
	}

	var g Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %v", g.Value())
	}
	g.SetMax(2)
	if g.Value() != 3 {
		t.Fatal("SetMax lowered the gauge")
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("SetMax = %v", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %v, want 8000", c.Value())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	h.Observe(math.NaN()) // dropped
	snap := h.Snapshot()
	// le=1: {0.5, 1}; le=5: +{3}; le=10: +{7}; +Inf: +{100}
	want := []int64{2, 3, 4, 5}
	for i, w := range want {
		if snap.Cumulative[i] != w {
			t.Fatalf("cumulative = %v, want %v", snap.Cumulative, want)
		}
	}
	if snap.Count != 5 || snap.Sum != 111.5 {
		t.Fatalf("count=%d sum=%v", snap.Count, snap.Sum)
	}
	if NewHistogram(nil).bounds[0] != LatencyBuckets[0] {
		t.Fatal("nil bounds should select LatencyBuckets")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{10, 50, 90, 100})
	if q := h.Snapshot().Quantile(0.5); q != 0 {
		t.Fatalf("empty p50 = %v, want 0", q)
	}
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	snap := h.Snapshot()
	if snap.Count != 100 {
		t.Fatalf("count = %d", snap.Count)
	}
	// Ranks 50 and 99 land in the buckets bounded by 50 and 100; rank 1
	// in the first.
	p50, p99 := snap.Quantile(0.50), snap.Quantile(0.99)
	if p50 != 50 || p99 != 100 || snap.Quantile(0) != 10 {
		t.Fatalf("p0=%v p50=%v p99=%v", snap.Quantile(0), p50, p99)
	}
	if p50 > p99 {
		t.Fatalf("p50 %v > p99 %v", p50, p99)
	}
	// Observations past every bound read as the largest finite bound,
	// never +Inf (which encoding/json refuses).
	h.Observe(1e9)
	h.Observe(1e9)
	if q := h.Snapshot().Quantile(1); q != 100 {
		t.Fatalf("+Inf-bucket quantile = %v, want the largest bound 100", q)
	}
	if _, err := json.Marshal(h.Snapshot().Quantile(1)); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests_total", "Total requests.").Add(3)
	rv := r.CounterVec("errs_total", "Errors by endpoint.", "endpoint")
	rv.With("maximize").Inc()
	rv.With("spread").Add(2)
	r.Gauge("in_flight", "In-flight requests.").Set(4)
	r.Histogram("latency_ms", "Latency.", []float64{1, 10}).Observe(0.5)
	hv := r.HistogramVec("phase_ms", "Phase latency.", []float64{1, 10}, "phase")
	hv.With("plan").Observe(5)
	hv.With("plan").Observe(50)
	r.CounterFunc("fn_total", "Func-backed counter.", func() float64 { return 42 })
	r.GaugeFunc("fn_gauge", "Func-backed gauge.", func() float64 { return 1.5 })
	r.GaugeVec("tier_max", "Max by tier.", "tier").With("fast").SetMax(9)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()

	fams, err := ParseExposition(text)
	if err != nil {
		t.Fatalf("self-rendered output failed to parse: %v\n%s", err, text)
	}
	if errs := Lint(fams); len(errs) != 0 {
		t.Fatalf("lint errors: %v\n%s", errs, text)
	}

	checks := map[string]float64{
		"requests_total": 3, "in_flight": 4, "fn_total": 42, "fn_gauge": 1.5,
	}
	for name, want := range checks {
		f := fams[name]
		if f == nil {
			t.Fatalf("missing family %s\n%s", name, text)
		}
		if f.Samples[0].Value != want {
			t.Fatalf("%s = %v, want %v", name, f.Samples[0].Value, want)
		}
	}
	ev := fams["errs_total"]
	if ev == nil || len(ev.Samples) != 2 {
		t.Fatalf("errs_total = %+v", ev)
	}
	byEp := map[string]float64{}
	for _, s := range ev.Samples {
		byEp[s.Labels["endpoint"]] = s.Value
	}
	if byEp["maximize"] != 1 || byEp["spread"] != 2 {
		t.Fatalf("errs_total = %v", byEp)
	}
	ph := fams["phase_ms"]
	if ph == nil {
		t.Fatal("missing phase_ms")
	}
	var count, sum float64
	for _, s := range ph.Samples {
		switch s.Name {
		case "phase_ms_count":
			count = s.Value
		case "phase_ms_sum":
			sum = s.Value
		}
	}
	if count != 2 || sum != 55 {
		t.Fatalf("phase_ms count=%v sum=%v", count, sum)
	}

	// Re-registering with the same shape returns the same instrument.
	if r.Counter("requests_total", "Total requests.").Value() != 3 {
		t.Fatal("re-registration should fetch the same counter")
	}
	// Different type panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("type mismatch should panic")
			}
		}()
		r.Gauge("requests_total", "oops")
	}()
}

func TestEscaping(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("esc_total", `Help with \backslash and`+"\nnewline", "k").
		With(`va"l\ue` + "\n2").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	fams, err := ParseExposition(b.String())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, b.String())
	}
	s := fams["esc_total"].Samples[0]
	if s.Labels["k"] != `va"l\ue`+"\n2" {
		t.Fatalf("label round-trip = %q", s.Labels["k"])
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without HELP":  "foo 1\n",
		"TYPE before HELP":     "# TYPE foo counter\nfoo 1\n",
		"sample before TYPE":   "# HELP foo h\nfoo 1\n",
		"bad value":            "# HELP foo h\n# TYPE foo counter\nfoo abc\n",
		"unterminated label":   "# HELP foo h\n# TYPE foo counter\nfoo{a=\"b 1\n",
		"unknown type":         "# HELP foo h\n# TYPE foo widget\nfoo 1\n",
		"duplicate label":      "# HELP foo h\n# TYPE foo counter\nfoo{a=\"1\",a=\"2\"} 1\n",
		"stray trailing field": "# HELP foo h\n# TYPE foo counter\nfoo 1 12345\n",
		"family with no data":  "# HELP foo h\n# TYPE foo counter\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(text); err == nil {
			t.Errorf("%s: expected parse error", name)
		}
	}
}

func TestLintCatchesViolations(t *testing.T) {
	// Non-cumulative histogram buckets.
	bad := `# HELP h x
# TYPE h histogram
h_bucket{le="1"} 5
h_bucket{le="2"} 3
h_bucket{le="+Inf"} 5
h_sum 10
h_count 5
`
	fams, err := ParseExposition(bad)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Lint(fams); len(errs) == 0 {
		t.Fatal("lint should flag non-cumulative buckets")
	}

	// +Inf bucket disagreeing with _count.
	bad2 := strings.ReplaceAll(bad, `h_bucket{le="2"} 3`, `h_bucket{le="2"} 5`)
	bad2 = strings.ReplaceAll(bad2, `h_bucket{le="+Inf"} 5`, `h_bucket{le="+Inf"} 4`)
	fams2, err := ParseExposition(bad2)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Lint(fams2); len(errs) == 0 {
		t.Fatal("lint should flag +Inf != _count")
	}

	// Negative counter.
	bad3 := "# HELP c x\n# TYPE c counter\nc -1\n"
	fams3, err := ParseExposition(bad3)
	if err != nil {
		t.Fatal(err)
	}
	if errs := Lint(fams3); len(errs) == 0 {
		t.Fatal("lint should flag negative counter")
	}
}

func BenchmarkUntracedSpan(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		StartSpan(ctx, "phase").Attr("k", 1).End()
	}
}

func BenchmarkTracedSpan(b *testing.B) {
	tr := NewTrace("bench")
	ctx := WithTrace(context.Background(), tr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := StartSpan(ctx, "phase")
		sp.End()
		// Reset so the span slice doesn't grow unboundedly across iterations.
		if i%1024 == 1023 {
			tr.mu.Lock()
			tr.spans = tr.spans[:0]
			tr.mu.Unlock()
		}
	}
}
