package probe

import "sort"

// Sample is one point of a time series.
type Sample struct {
	Cycle uint64
	Value float64
}

// Series is one named time series keyed by cycle.
type Series struct {
	Name    string
	Samples []Sample
}

type gaugeEntry struct {
	name string
	fn   func() float64
	// rate converts a cumulative reading into a per-cycle rate over the
	// sampling interval (used for link utilization).
	rate      bool
	prev      float64
	prevCycle uint64
	started   bool
	samples   []Sample
}

// Registry holds named gauges. It is not safe for concurrent use; each
// simulation owns its probe and polls it in the serial commit.
type Registry struct {
	gauges []*gaugeEntry
}

// Gauge registers an instantaneous gauge polled at every sample point. A nil
// registry ignores the registration.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, &gaugeEntry{name: name, fn: fn})
}

// Rate registers a gauge over a cumulative reading: each sample records the
// per-cycle increase since the previous sample (the first sample is dropped,
// establishing the baseline). Link utilization uses this over the forwarded
// flit counters.
func (r *Registry) Rate(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.gauges = append(r.gauges, &gaugeEntry{name: name, fn: fn, rate: true})
}

// Sample polls every gauge at the given cycle.
func (r *Registry) Sample(cycle uint64) {
	if r == nil {
		return
	}
	for _, g := range r.gauges {
		v := g.fn()
		if g.rate {
			prev, prevCycle, started := g.prev, g.prevCycle, g.started
			g.prev, g.prevCycle, g.started = v, cycle, true
			if !started || cycle <= prevCycle {
				continue
			}
			v = (v - prev) / float64(cycle-prevCycle)
		}
		g.samples = append(g.samples, Sample{Cycle: cycle, Value: v})
	}
}

// Series returns every gauge's time series, sorted by name for
// deterministic export.
func (r *Registry) Series() []Series {
	if r == nil {
		return nil
	}
	out := make([]Series, 0, len(r.gauges))
	for _, g := range r.gauges {
		out = append(out, Series{Name: g.name, Samples: g.samples})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
