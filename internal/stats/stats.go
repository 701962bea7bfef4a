// Package stats collects the metrics the paper reports: per-flow and
// aggregate accepted throughput (flits/cycle/node), packet latency
// (average/max/percentiles), and fairness summaries (MAX/MIN/AVG/STDEV of
// per-flow throughput, Fig. 10).
package stats

import (
	"math"
	"slices"

	"loft/internal/flit"
	"loft/internal/sim"
)

// Latency accumulates packet latencies observed after a warmup boundary.
// Percentiles are computed over a uniform reservoir of bounded size: when
// more than capHint packets arrive, each later packet replaces a random
// retained sample with probability capHint/count (Vitter's algorithm R), so
// every packet of the run is equally likely to be retained. The reservoir
// RNG is deterministic (seeded from the run seed via sim.SeedFor), keeping
// results bit-for-bit reproducible. The reservoir is allocated whole at the
// first recorded packet, so recording never allocates after that.
type Latency struct {
	warmup uint64
	sum    float64
	count  uint64
	max    uint64
	// samples is the uniform reservoir for percentiles. A latency is a
	// cycle count, exact in 32 bits for any run shorter than 2^32 cycles;
	// longer ones saturate.
	samples []uint32
	capHint int
	rng     sim.RNG
}

// latencyStream decorrelates the reservoir RNG from the traffic streams
// that share the same experiment seed.
const latencyStream = 0x10a7e9c1

// NewLatencySeeded returns a collector that ignores packets created before
// warmup, its percentile reservoir driven by the given run seed.
func NewLatencySeeded(warmup, seed uint64) *Latency {
	return &Latency{
		warmup:  warmup,
		capHint: 1 << 16,
		rng:     *sim.NewRNG(sim.SeedFor(seed, latencyStream)),
	}
}

// Observe records one packet latency for a packet created at created and
// fully ejected at done.
func (l *Latency) Observe(created, done uint64) {
	if created < l.warmup {
		return
	}
	lat := done - created
	l.sum += float64(lat)
	l.count++
	if lat > l.max {
		l.max = lat
	}
	sample := uint32(min(lat, math.MaxUint32))
	if len(l.samples) < l.capHint {
		if l.samples == nil {
			l.samples = make([]uint32, 0, l.capHint)
		}
		l.samples = append(l.samples, sample)
		return
	}
	// Reservoir step: keep each of the count packets with equal probability.
	if j := l.rng.Intn(int(l.count)); j < l.capHint {
		l.samples[j] = sample
	}
}

// Count returns the number of recorded packets.
func (l *Latency) Count() uint64 { return l.count }

// Warmup returns the collector's warmup boundary.
func (l *Latency) Warmup() uint64 { return l.warmup }

// Mean returns the average latency in cycles (0 when empty).
func (l *Latency) Mean() float64 {
	if l.count == 0 {
		return 0
	}
	return l.sum / float64(l.count)
}

// Max returns the maximum observed latency.
func (l *Latency) Max() uint64 { return l.max }

// Percentile returns the p-th percentile (0..100) over retained samples.
func (l *Latency) Percentile(p float64) float64 {
	if len(l.samples) == 0 {
		return 0
	}
	s := slices.Clone(l.samples)
	slices.Sort(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return float64(s[idx])
}

// FlowLatency tracks per-flow packet latency summaries (Fig. 12 reports
// per-flow curves).
type FlowLatency struct {
	warmup uint64
	sum    map[flit.FlowID]float64
	count  map[flit.FlowID]uint64
	max    map[flit.FlowID]uint64
}

// NewFlowLatency returns a per-flow collector with the given warmup.
func NewFlowLatency(warmup uint64) *FlowLatency {
	return &FlowLatency{
		warmup: warmup,
		sum:    make(map[flit.FlowID]float64),
		count:  make(map[flit.FlowID]uint64),
		max:    make(map[flit.FlowID]uint64),
	}
}

// Observe records one packet of flow f created at created, delivered at
// done.
func (l *FlowLatency) Observe(f flit.FlowID, created, done uint64) {
	if created < l.warmup {
		return
	}
	lat := done - created
	l.sum[f] += float64(lat)
	l.count[f]++
	if lat > l.max[f] {
		l.max[f] = lat
	}
}

// Mean returns flow f's average latency (0 when no packets).
func (l *FlowLatency) Mean(f flit.FlowID) float64 {
	if l.count[f] == 0 {
		return 0
	}
	return l.sum[f] / float64(l.count[f])
}

// Max returns flow f's maximum latency.
func (l *FlowLatency) Max(f flit.FlowID) uint64 { return l.max[f] }

// Count returns flow f's packet count.
func (l *FlowLatency) Count(f flit.FlowID) uint64 { return l.count[f] }

// Throughput counts ejected flits per flow over a measurement window.
//
// Window rules: the window starts at warmup and ends at the Close cycle, or
// — when Close is never called — one past the last *measured* (post-warmup)
// ejection. Pre-warmup ejections never move the window: a run that ends
// during warmup has an empty window, and flits ignored by the warmup cut
// cannot inflate the denominator of every rate.
type Throughput struct {
	warmup uint64
	start  uint64 // first counted cycle (= warmup)
	end    uint64 // one past the last measured ejection, or the Close cycle
	byFlow map[flit.FlowID]uint64
	byNode map[int]uint64
	total  uint64
}

// NewThroughput returns a collector ignoring flits ejected before warmup.
func NewThroughput(warmup uint64) *Throughput {
	return &Throughput{
		warmup: warmup,
		start:  warmup,
		byFlow: make(map[flit.FlowID]uint64),
		byNode: make(map[int]uint64),
	}
}

// Observe records ejection of one flit of flow f, sourced at node src, at
// cycle now.
func (t *Throughput) Observe(f flit.FlowID, src int, now uint64) {
	t.ObserveN(f, src, 1, now)
}

// ObserveN records ejection of n flits of flow f, sourced at node src, all
// at cycle now. Quantum ejections land whole quanta per cycle, so batching
// the count into one call replaces n map updates with one on the hot path.
func (t *Throughput) ObserveN(f flit.FlowID, src, n int, now uint64) {
	if n <= 0 || now < t.warmup {
		return
	}
	if now+1 > t.end {
		t.end = now + 1
	}
	t.byFlow[f] += uint64(n)
	t.byNode[src] += uint64(n)
	t.total += uint64(n)
}

// Close fixes the measurement window end at the given cycle (call after the
// run). It never shrinks a window already extended by later observations.
func (t *Throughput) Close(now uint64) {
	if now > t.end {
		t.end = now
	}
}

func (t *Throughput) window() float64 {
	if t.end <= t.start {
		return 1
	}
	return float64(t.end - t.start)
}

// Flow returns flow f's accepted rate in flits/cycle.
func (t *Throughput) Flow(f flit.FlowID) float64 {
	return float64(t.byFlow[f]) / t.window()
}

// Node returns the accepted rate of traffic sourced at node in flits/cycle.
func (t *Throughput) Node(node int) float64 {
	return float64(t.byNode[node]) / t.window()
}

// Total returns the aggregate accepted rate in flits/cycle (all nodes).
func (t *Throughput) Total() float64 { return float64(t.total) / t.window() }

// TotalFlits returns the raw counted flits.
func (t *Throughput) TotalFlits() uint64 { return t.total }

// Summary is the MAX/MIN/AVG/STDEV row format of Fig. 10.
type Summary struct {
	Max, Min, Avg float64
	// Stdev is the relative standard deviation (stdev/avg), matching the
	// percentage column of Fig. 10.
	Stdev float64
	N     int
}

// Summarize computes a fairness summary over per-flow rates.
func Summarize(rates []float64) Summary {
	if len(rates) == 0 {
		return Summary{}
	}
	s := Summary{Min: math.Inf(1), Max: math.Inf(-1), N: len(rates)}
	var sum float64
	for _, r := range rates {
		sum += r
		if r > s.Max {
			s.Max = r
		}
		if r < s.Min {
			s.Min = r
		}
	}
	s.Avg = sum / float64(len(rates))
	var ss float64
	for _, r := range rates {
		d := r - s.Avg
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(len(rates)))
	if s.Avg != 0 {
		s.Stdev = sd / s.Avg
	}
	return s
}
