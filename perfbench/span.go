package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one recorded boundary crossing: a call into a layer, with the
// span that caused it. Times are seconds since the tracer's epoch.
//
// An aggregate span (Calls > 0) stands for many short sequential calls
// across one boundary — every Emit of a sink, say — folded into one record
// so a campaign's million record emits do not become a million spans. Its
// Start/End are the first call's start and the last call's end, and Busy is
// the summed duration of the calls themselves.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = no parent
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Calls  int     `json:"calls,omitempty"`
	Busy   float64 `json:"busy_s,omitempty"`
}

// Dur is the time the span's layer was busy: the interval for an ordinary
// span, the summed call time for an aggregate.
func (s Span) Dur() float64 {
	if s.Calls > 0 {
		return s.Busy
	}
	return s.End - s.Start
}

// Tracer keeps spans in memory until the benchmark ends. It is safe for
// concurrent use: fleet workers open per-seed spans from their own
// goroutines. A nil *Tracer records nothing, so untraced runs pass nil.
type Tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
	aggs  []*Agg
}

// NewTracer starts a tracer whose epoch is now.
func NewTracer() *Tracer { return &Tracer{epoch: time.Now()} }

func (t *Tracer) now() float64 { return time.Since(t.epoch).Seconds() }

// Begin opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + len(t.aggs) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Start: start, End: -1})
	return id
}

// End closes the span Begin returned.
func (t *Tracer) End(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].ID == id {
			t.spans[i].End = end
			return
		}
	}
}

// Do runs f inside a span named name under parent.
func (t *Tracer) Do(name string, parent int, f func(id int)) {
	id := t.Begin(name, parent)
	f(id)
	t.End(id)
}

// Agg is an aggregate span's accumulator. It is owned by one goroutine
// (the one making the calls it times), so it takes no lock per call.
type Agg struct {
	t    *Tracer
	span Span
}

// NewAgg registers an aggregate span under parent. A nil tracer yields a
// nil *Agg, whose Start and Stop do nothing.
func (t *Tracer) NewAgg(name string, parent int) *Agg {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	a := &Agg{t: t, span: Span{ID: len(t.spans) + len(t.aggs) + 1, Parent: parent, Name: name, Start: -1}}
	t.aggs = append(t.aggs, a)
	return a
}

// Start marks the beginning of one timed call; pass the result to Stop.
func (a *Agg) Start() time.Time {
	if a == nil {
		return time.Time{}
	}
	return time.Now()
}

// Stop folds the call begun at start into the aggregate.
func (a *Agg) Stop(start time.Time) {
	if a == nil {
		return
	}
	end := time.Now()
	if a.span.Calls == 0 {
		a.span.Start = start.Sub(a.t.epoch).Seconds()
	}
	a.span.End = end.Sub(a.t.epoch).Seconds()
	a.span.Calls++
	a.span.Busy += end.Sub(start).Seconds()
}

// Spans returns every recorded span in id order. Call it once the traced
// section has finished; aggregates with no calls are dropped.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := append([]Span(nil), t.spans...)
	for _, a := range t.aggs {
		if a.span.Calls > 0 {
			out = append(out, a.span)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// WriteJSON writes the spans to path.
func (t *Tracer) WriteJSON(path string) error {
	b, err := json.MarshalIndent(struct {
		Spans []Span `json:"spans"`
	}{t.Spans()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// SelfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Ordinary children cover the union
// of their intervals (concurrent children — fleet seeds on two workers —
// are not double-counted); aggregate children cover their busy time, since
// their calls run one at a time on the parent's goroutine.
func SelfTimes(spans []Span) map[int]float64 {
	kids := map[int][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		if s.Calls > 0 {
			self[s.ID] = s.Busy
			continue
		}
		var covered float64
		var ivs [][2]float64
		for _, k := range kids[s.ID] {
			if k.Calls > 0 {
				covered += k.Busy
				continue
			}
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi > lo {
				ivs = append(ivs, [2]float64{lo, hi})
			}
		}
		covered += unionLen(ivs)
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total, curLo, curHi float64
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		curHi = max(curHi, iv[1])
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// byName sums a per-span quantity over every span with the given name.
func byName(spans []Span, name string, f func(Span) float64) float64 {
	var sum float64
	for _, s := range spans {
		if s.Name == name {
			sum += f(s)
		}
	}
	return sum
}
