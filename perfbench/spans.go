package main

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Times are
// nanoseconds since the tracer started; spans of one op share op.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// noSpan is the id a nil tracer hands out and the parent of root spans.
const noSpan = -1

// openEnd marks a span not yet ended. A span recorded after the fact
// may lie before the tracer started, so negative times are valid.
const openEnd = math.MinInt64

// tracer records spans in memory. A nil *tracer records nothing, so
// untraced runs pay one nil check per call site.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// opBase is added to op ids, so that ops of successive measured
	// slices, which each count from 0, keep distinct ids.
	opBase int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return noSpan
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.opBase + op, ID: id, Parent: parent, Start: start, End: openEnd})
	return id
}

// end closes the span id.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere.
func (t *tracer) add(name string, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: t.opBase + op, ID: len(t.spans), Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End != openEnd {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children (ranks
// running concurrently) are counted once. The result is keyed by id.
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != noSpan {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, c := range spans {
		a, b := max(c.Start, lo), min(c.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
	P50Ms   float64 `json:"p50_ms"`
	SelfP50 float64 `json:"self_p50_ms"`
}

// summarize groups spans by name with their total and self times.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	durs, selfs := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
		selfs[s.Name] = append(selfs[s.Name], float64(self[s.ID])/1e6)
	}
	out := make([]spanSummary, 0, len(durs))
	for name, d := range durs {
		sm := spanSummary{Name: name, Count: len(d), P50Ms: median(d), SelfP50: median(selfs[name])}
		for i := range d {
			sm.TotalMs += d[i]
			sm.SelfMs += selfs[name][i]
		}
		out = append(out, sm)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// spanDurations returns the durations in ms of the spans named name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// writeSpans writes the raw spans and their per-name summary as JSON.
func writeSpans(w io.Writer, fp fingerprint, spans []span) error {
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		Fingerprint fingerprint   `json:"fingerprint"`
		Summary     []spanSummary `json:"summary"`
		Spans       []span        `json:"spans"`
	}{fp, summarize(spans), spans})
}
