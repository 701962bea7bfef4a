package main

import (
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer. Spans are recorded
// from this package only, around the calls into each layer; nothing inside
// the simulator is instrumented.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // -1 for a rep's root span
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// tracing-off state: timed still measures, it just records nothing, so the
// untraced and the traced run share one code path and one clock.
type tracer struct {
	base     time.Time
	workload string
	rep      int
	spans    []span
	stack    []int
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// nextRep gives the spans of the next rep their own id.
func (t *tracer) nextRep() {
	if t != nil {
		t.rep++
	}
}

// timed runs fn, returns how long it took and, when tracing, records a span
// named name whose parent is the span open at the call.
func (t *tracer) timed(name string, fn func()) time.Duration {
	start := time.Now()
	id := -1
	if t != nil {
		parent := -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
		id = len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Rep: t.rep, StartNS: start.Sub(t.base).Nanoseconds()})
		t.stack = append(t.stack, id)
	}
	fn()
	end := time.Now()
	if t != nil {
		t.spans[id].EndNS = end.Sub(t.base).Nanoseconds()
		t.stack = t.stack[:len(t.stack)-1]
	}
	return end.Sub(start)
}

// spanTotal is the time spent under one span name: total is the sum of the
// spans' durations, self is total minus the part their child spans cover.
type spanTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates one workload's spans by name, sorted by name.
func selfTimes(spans []span, workload string) []spanTotal {
	children := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.EndNS - s.StartNS
		}
	}
	byName := map[string]*spanTotal{}
	for i, s := range spans {
		if s.Workload != workload {
			continue
		}
		st := byName[s.Name]
		if st == nil {
			st = &spanTotal{Name: s.Name}
			byName[s.Name] = st
		}
		d := s.EndNS - s.StartNS
		st.Count++
		st.TotalMS += float64(d) / 1e6
		st.SelfMS += float64(d-children[i]) / 1e6
	}
	out := make([]spanTotal, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
