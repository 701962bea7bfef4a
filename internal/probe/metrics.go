package probe

import (
	"math"
	"sort"
)

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

// family is a set of gauges registered together: member i is named name(i)
// and read by read(i). A rate family converts each member's cumulative
// reading into a per-cycle rate over the sampling interval (used for link
// utilization).
type family struct {
	n    int
	name func(i int) string
	read func(i int) float64 // nil once retired
	rate bool
	// first is the row the family's readings start in; end is the row
	// before which it was retired (math.MaxInt while it is live).
	first, end int
}

// row is one sample point: its cycle, the first family it may hold
// readings of, and where its readings start in the slab. A row holds one
// reading per member of every family live when it was sampled, in family
// order.
type row struct {
	cycle uint64
	lo    int
	off   int
}

// Registry holds named gauges and their readings. Sample appends one row of
// raw readings to a single slab and Series rebuilds each gauge's time series
// from it, so sampling allocates only when the slab or the row list grows.
// A retired family keeps its samples but is never polled again, so the
// gauges of a finished network cost later sample points nothing. It is not
// safe for concurrent use; each simulation owns its probe and polls it in
// the serial commit.
type Registry struct {
	fams []family
	// lo is the first family not yet retired: families below it are never
	// polled or looked at by a row sampled later.
	lo int
	// live counts the gauges of the families not retired: one row's width.
	live int
	rows []row
	slab []float64
}

// Family identifies a registered family of gauges, for Retire.
type Family int

// Gauges registers a family of n instantaneous gauges polled at every sample
// point: member i is named name(i) and read by read(i). Names are formatted
// only when Series is called. A nil registry ignores the registration.
func (r *Registry) Gauges(n int, name func(i int) string, read func(i int) float64) Family {
	return r.add(family{n: n, name: name, read: read})
}

// Rates registers a family of n gauges over cumulative readings: each sample
// of member i records the per-cycle increase of read(i) since the previous
// sample (the first reading is dropped, establishing the baseline, and a
// reading whose cycle does not advance past the previous one is skipped).
// Link utilization uses this over the forwarded flit counters. A nil
// registry ignores the registration.
func (r *Registry) Rates(n int, name func(i int) string, read func(i int) float64) Family {
	return r.add(family{n: n, name: name, read: read, rate: true})
}

// Gauge registers one instantaneous gauge: a family with one member.
func (r *Registry) Gauge(name string, fn func() float64) Family {
	return r.Gauges(1, func(int) string { return name }, func(int) float64 { return fn() })
}

// Rate registers one gauge over a cumulative reading: a Rates family with
// one member.
func (r *Registry) Rate(name string, fn func() float64) Family {
	return r.Rates(1, func(int) string { return name }, func(int) float64 { return fn() })
}

func (r *Registry) add(f family) Family {
	if r == nil {
		return -1
	}
	f.first, f.end = len(r.rows), math.MaxInt
	r.fams = append(r.fams, f)
	r.live += f.n
	return Family(len(r.fams) - 1)
}

// Retire stops polling family f: its samples stay in Series, its reader is
// dropped, and no later sample point reads it. Retiring twice, or on a nil
// registry, does nothing.
func (r *Registry) Retire(f Family) {
	if r == nil || f < 0 || r.fams[f].read == nil {
		return
	}
	r.fams[f].read, r.fams[f].end = nil, len(r.rows)
	r.live -= r.fams[f].n
	for r.lo < len(r.fams) && r.fams[r.lo].read == nil {
		r.lo++
	}
}

// Sample polls every live gauge at the given cycle.
func (r *Registry) Sample(cycle uint64) {
	if r == nil {
		return
	}
	r.rows = append(r.rows, row{cycle: cycle, lo: r.lo, off: len(r.slab)})
	// Double the slab when the row does not fit, so a run's sampling
	// allocates O(log rows) times whatever the number of gauges, and the
	// slab is never more than twice its readings.
	if cap(r.slab)-len(r.slab) < r.live {
		grown := make([]float64, len(r.slab), len(r.slab)+max(len(r.slab), r.live))
		copy(grown, r.slab)
		r.slab = grown
	}
	for i := r.lo; i < len(r.fams); i++ {
		f := &r.fams[i]
		if f.read == nil {
			continue
		}
		for j := 0; j < f.n; j++ {
			r.slab = append(r.slab, f.read(j))
		}
	}
}

// Series returns every gauge's time series, sorted by name for
// deterministic export; gauges of one name (the same gauge of successive
// networks sharing a probe) keep their registration order.
func (r *Registry) Series() []Series {
	if r == nil {
		return nil
	}
	// base[i] is family i's first gauge in out; every gauge gets a piece of
	// one sample slab sized to the rows its family was live for.
	base := make([]int, len(r.fams))
	gauges, points := 0, 0
	for i := range r.fams {
		f := &r.fams[i]
		base[i] = gauges
		gauges += f.n
		points += f.n * (min(f.end, len(r.rows)) - f.first)
	}
	out := make([]Series, gauges)
	samples := make([]Sample, points)
	for i := range r.fams {
		f := &r.fams[i]
		live := min(f.end, len(r.rows)) - f.first
		for j := 0; j < f.n; j++ {
			out[base[i]+j] = Series{Name: f.name(j), Samples: samples[:0:live]}
			samples = samples[live:]
		}
	}
	// prev[i] is where family i's readings start in the previous row, the
	// baseline of a rate family's next reading.
	prev := make([]int, len(r.fams))
	for ri, rw := range r.rows {
		off := rw.off
		for i := rw.lo; i < len(r.fams) && r.fams[i].first <= ri; i++ {
			f := &r.fams[i]
			if ri >= f.end {
				continue
			}
			for j := 0; j < f.n; j++ {
				v := r.slab[off+j]
				if f.rate {
					if ri == f.first {
						continue
					}
					prevCycle := r.rows[ri-1].cycle
					if rw.cycle <= prevCycle {
						continue
					}
					v = (v - r.slab[prev[i]+j]) / float64(rw.cycle-prevCycle)
				}
				s := &out[base[i]+j]
				s.Samples = append(s.Samples, Sample{Cycle: rw.cycle, Value: v})
			}
			prev[i] = off
			off += f.n
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
