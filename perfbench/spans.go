package main

import (
	"cmp"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/obs"
)

// spanLog keeps every span of a traced run in memory until the run ends:
// the benchmark's own spans (setup steps and one per request, keyed by the
// request id it sends) and the trace each request left in the library or
// the server under the same id.
type spanLog struct {
	start  time.Time
	spans  []benchSpan
	traces []obs.TraceSnapshot
}

type benchSpan struct {
	ID      string         `json:"id"`
	Name    string         `json:"name"`
	StartUs int64          `json:"start_us"` // from the start of the process's log
	DurUs   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

func newSpanLog() *spanLog { return &spanLog{start: time.Now()} }

// add records one benchmark span; on a nil log (untraced runs) it is a
// no-op.
func (l *spanLog) add(id, name string, start, end time.Time, attrs map[string]any) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, benchSpan{
		ID:      id,
		Name:    name,
		StartUs: start.Sub(l.start).Microseconds(),
		DurUs:   end.Sub(start).Microseconds(),
		Attrs:   attrs,
	})
}

func (l *spanLog) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload  string              `json:"workload"`
		Seed      uint64              `json:"seed"`
		StartedAt time.Time           `json:"started_at"`
		Spans     []benchSpan         `json:"spans"`
		Traces    []obs.TraceSnapshot `json:"traces"`
	}{workload, seed, l.start, l.spans, l.traces})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// span is one span of a trace as an interval in milliseconds from the
// trace's start.
type span struct {
	name       string
	start, end float64
	attrs      map[string]any
}

// tolMs absorbs rounding: obs truncates each span's start and duration to
// whole microseconds separately, so a child can appear to end up to 1 µs
// after its parent.
const tolMs = 0.002

// encloses reports whether span b (index bi) nests inside span a (index
// ai). Spans carry no parent link, so nesting is read from the intervals;
// of two spans with the same interval the later-started one is the child.
func encloses(a, b span, ai, bi int) bool {
	if ai == bi || b.start < a.start-tolMs || b.end > a.end+tolMs {
		return false
	}
	la, lb := a.end-a.start, b.end-b.start
	if math.Abs(la-lb) <= tolMs {
		return bi > ai
	}
	return lb < la
}

// unionMs is the total length of the union of intervals, clipped to
// [lo, hi].
func unionMs(ivs [][2]float64, lo, hi float64) float64 {
	slices.SortFunc(ivs, func(x, y [2]float64) int { return cmp.Compare(x[0], y[0]) })
	var total, curLo, curHi float64
	open := false
	for _, iv := range ivs {
		s, e := max(iv[0], lo), min(iv[1], hi)
		switch {
		case e <= s:
		case !open || s > curHi:
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = s, e, true
		default:
			curHi = max(curHi, e)
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// breakdown is what one request's trace says about its layers.
type breakdown struct {
	self  map[string]float64 // span name → Σ self time (duration minus nested spans)
	total map[string]float64 // span name → Σ duration
	// setsSampled is Σ (to − from) over rr.extend spans.
	setsSampled float64
	// theta is the select span's θ (-1 without a select span).
	theta float64
	// topMs is the union of the spans no other span encloses; allMs the
	// union of every span.
	topMs, allMs float64
	// coverMs is the union of the spans named in cover.
	coverMs float64
}

func analyze(snap obs.TraceSnapshot, cover ...string) breakdown {
	spans := make([]span, len(snap.Spans))
	for i, s := range snap.Spans {
		spans[i] = span{name: s.Name, start: s.StartMs, end: s.StartMs + s.DurationMs, attrs: s.Attrs}
	}
	bd := breakdown{self: map[string]float64{}, total: map[string]float64{}, theta: -1}
	var top, all, covered [][2]float64
	for i, a := range spans {
		var children [][2]float64
		enclosed := false
		for j, b := range spans {
			if encloses(a, b, i, j) {
				children = append(children, [2]float64{b.start, b.end})
			}
			if encloses(b, a, j, i) {
				enclosed = true
			}
		}
		iv := [2]float64{a.start, a.end}
		bd.total[a.name] += a.end - a.start
		bd.self[a.name] += a.end - a.start - unionMs(children, a.start, a.end)
		all = append(all, iv)
		if !enclosed {
			top = append(top, iv)
		}
		if slices.Contains(cover, a.name) {
			covered = append(covered, iv)
		}
		switch a.name {
		case "rr.extend":
			bd.setsSampled += attrNum(a.attrs["to"]) - attrNum(a.attrs["from"])
		case "select":
			bd.theta = attrNum(a.attrs["theta"])
		}
	}
	inf := math.Inf(1)
	bd.topMs = unionMs(top, -inf, inf)
	bd.allMs = unionMs(all, -inf, inf)
	bd.coverMs = unionMs(covered, -inf, inf)
	return bd
}

// attrNum reads a numeric span attribute: int64 in an in-process trace,
// float64 once a trace has been through JSON.
func attrNum(v any) float64 {
	switch x := v.(type) {
	case int64:
		return float64(x)
	case float64:
		return x
	}
	return 0
}

// layers accumulates per-layer totals over the traced requests of one
// phase; metrics turns them into the per-layer metrics, per query unless
// the name says otherwise.
type layers struct {
	queries, updates float64
	self, total      map[string]float64
	updateApplyMs    float64
	setsSampled      float64
	theta, reused    float64
	repaired         float64
	untracedMs       float64
	respondMs        float64
	fast             float64
	coveredMs        float64
	clientMs         float64
}

func newLayers() *layers {
	return &layers{self: map[string]float64{}, total: map[string]float64{}}
}

func (l *layers) addQuery(bd breakdown) {
	l.queries++
	for k, v := range bd.self {
		l.self[k] += v
	}
	for k, v := range bd.total {
		l.total[k] += v
	}
	l.setsSampled += bd.setsSampled
}

func (l *layers) metrics() map[string]float64 {
	q := l.queries
	return map[string]float64{
		"tim.kpt_estimate_ms":             per(l.self["kpt.estimate"], q),
		"tim.kpt_refine_ms":               per(l.self["kpt.refine"], q),
		"tim.theta":                       per(l.theta, q),
		"diffusion.sample_ms":             per(l.total["rr.extend"], q),
		"diffusion.sets_sampled":          per(l.setsSampled, q),
		"maxcover.select_ms":              per(l.self["select"], q),
		"server.rr_store_ms":              per(l.self["rr.store"], q),
		"server.rr_reuse_ratio":           per(l.reused, l.theta),
		"server.untraced_ms":              per(l.untracedMs, q),
		"server.respond_ms":               per(l.respondMs, q),
		"evolve.repair_ms":                per(l.total["rr.repair"], q),
		"evolve.sets_repaired_per_update": per(l.repaired, l.updates),
		"evolve.update_apply_ms":          per(l.updateApplyMs, l.updates),
		"tiered.gate_wait_ms":             per(l.total["gate.wait"], q),
		"tiered.plan_ms":                  per(l.total["plan"], q),
		"tiered.fast_select_ms":           per(l.total["fast.select"], q),
		"tiered.fast_share":               per(l.fast, q),
	}
}
