package trace

import (
	"fmt"

	"loft/internal/det"
	"loft/internal/probe"
	"loft/internal/stats"
	"loft/internal/topo"
)

// Forward is one observed data crossing of a switch output.
type Forward struct {
	Node   int32  // router that forwarded the quantum
	Dir    int32  // output direction; topo.Local is the ejection into the sink
	Cycle  uint64 // crossing cycle
	Booked uint64 // booked departure cycle on that link
}

// Spec reports whether the crossing ran ahead of its booking — a §4.3.1
// speculative forward.
func (f Forward) Spec() bool { return f.Cycle < f.Booked }

// QuantumTrace is the reassembled end-to-end timeline of one quantum,
// anchored on the injection-link booking (la-issue at the NI), the physical
// injection (data-inject) and every switch crossing (data-forward). The last
// forward, with Dir == topo.Local, is the ejection.
type QuantumTrace struct {
	Flow     int32
	Seq      uint64
	Src      int32 // injecting node
	Dst      int32 // ejecting node
	Book     uint64
	Inject   uint64
	Forwards []Forward
}

// Components is the exact latency decomposition of one quantum. The four
// summed components partition the end-to-end latency:
//
//	Total = Eject − Book = BookingWait + Serialization + LookaheadWait + SpecWait
//
// BookingWait is the time from the injection-link booking until the data
// physically left the NI. Serialization is the unavoidable minimum dwell —
// one slot (QuantumFlits cycles) per crossed link, the quantum draining at
// link rate. The per-hop residual above that minimum is LookaheadWait on
// hops that departed at (or after) their booked cycle — waiting for the
// look-ahead-advanced reservation to come due — and SpecWait on hops that
// departed early under speculative switching. SpecSaved is informational,
// not part of the sum: the cycles speculation ran ahead of the bookings.
type Components struct {
	Total         uint64
	BookingWait   uint64
	Serialization uint64
	LookaheadWait uint64
	SpecWait      uint64
	SpecSaved     uint64
	Hops          int // crossed links, ejection included
	SpecHops      int
}

// Components decomposes the quantum's latency. slotCycles is the cycles per
// quantum slot (config QuantumFlits). It returns an error when the timeline
// violates the simulator's timing invariants (incomplete, out of order, or
// a dwell shorter than one slot) — a correct stream never does.
func (q *QuantumTrace) Components(slotCycles uint64) (Components, error) {
	if slotCycles == 0 {
		return Components{}, fmt.Errorf("flow %d seq %d: slotCycles must be positive", q.Flow, q.Seq)
	}
	n := len(q.Forwards)
	if n == 0 || q.Forwards[n-1].Dir != int32(topo.Local) {
		return Components{}, fmt.Errorf("flow %d seq %d: no ejection forward recorded", q.Flow, q.Seq)
	}
	if q.Inject < q.Book {
		return Components{}, fmt.Errorf("flow %d seq %d: injected at %d before booking at %d", q.Flow, q.Seq, q.Inject, q.Book)
	}
	c := Components{
		Total:         q.Forwards[n-1].Cycle - q.Book,
		BookingWait:   q.Inject - q.Book,
		Serialization: uint64(n) * slotCycles,
		Hops:          n,
	}
	prev := q.Inject
	for i, f := range q.Forwards {
		if f.Cycle < prev+slotCycles {
			return Components{}, fmt.Errorf("flow %d seq %d hop %d: dwell %d shorter than one slot (%d cycles)",
				q.Flow, q.Seq, i, f.Cycle-prev, slotCycles)
		}
		wait := f.Cycle - prev - slotCycles
		if f.Spec() {
			c.SpecHops++
			c.SpecWait += wait
			c.SpecSaved += f.Booked - f.Cycle
		} else {
			c.LookaheadWait += wait
		}
		prev = f.Cycle
	}
	return c, nil
}

// Agg aggregates component distributions over many quanta.
type Agg struct {
	Count         uint64
	HopCount      uint64 // total crossed links
	SpecHops      uint64
	Total         stats.Histogram
	BookingWait   stats.Histogram
	Serialization stats.Histogram
	LookaheadWait stats.Histogram
	SpecWait      stats.Histogram
	SpecSaved     stats.Histogram
}

func (a *Agg) observe(c Components) {
	a.Count++
	a.HopCount += uint64(c.Hops)
	a.SpecHops += uint64(c.SpecHops)
	a.Total.Observe(c.Total)
	a.BookingWait.Observe(c.BookingWait)
	a.Serialization.Observe(c.Serialization)
	a.LookaheadWait.Observe(c.LookaheadWait)
	a.SpecWait.Observe(c.SpecWait)
	a.SpecSaved.Observe(c.SpecSaved)
}

// ComponentStats is the JSON-friendly rendering of one component's
// distribution.
type ComponentStats struct {
	Mean float64 `json:"mean_cycles"`
	Max  uint64  `json:"max_cycles"`
	Hist string  `json:"histogram,omitempty"`
}

func componentStats(h *stats.Histogram) ComponentStats {
	return ComponentStats{Mean: h.Mean(), Max: h.Max(), Hist: h.String()}
}

// AggSummary is the JSON-friendly rendering of an Agg.
type AggSummary struct {
	Quanta        uint64         `json:"quanta"`
	MeanHops      float64        `json:"mean_hops"`
	SpecHopPct    float64        `json:"spec_hop_pct"`
	Total         ComponentStats `json:"total"`
	BookingWait   ComponentStats `json:"booking_wait"`
	Serialization ComponentStats `json:"serialization"`
	LookaheadWait ComponentStats `json:"lookahead_wait"`
	SpecWait      ComponentStats `json:"spec_wait"`
	SpecSaved     ComponentStats `json:"spec_saved"`
}

// Summary renders the aggregate.
func (a *Agg) Summary() AggSummary {
	s := AggSummary{
		Quanta:        a.Count,
		Total:         componentStats(&a.Total),
		BookingWait:   componentStats(&a.BookingWait),
		Serialization: componentStats(&a.Serialization),
		LookaheadWait: componentStats(&a.LookaheadWait),
		SpecWait:      componentStats(&a.SpecWait),
		SpecSaved:     componentStats(&a.SpecSaved),
	}
	if a.Count > 0 {
		s.MeanHops = float64(a.HopCount) / float64(a.Count)
	}
	if a.HopCount > 0 {
		s.SpecHopPct = 100 * float64(a.SpecHops) / float64(a.HopCount)
	}
	return s
}

// FlowAgg is one flow's aggregate.
type FlowAgg struct {
	Flow int32
	Agg  Agg
}

// HopAgg is the residual-wait distribution at one hop position along the
// path (hop 0 is the first router crossing after injection).
type HopAgg struct {
	Hop   int
	Count uint64
	Spec  uint64 // speculative crossings at this position
	Wait  stats.Histogram
}

// QuantumResult pairs one quantum's timeline with its decomposition.
type QuantumResult struct {
	QuantumTrace
	Components Components
}

// Decomposition is the result of replaying an event stream.
type Decomposition struct {
	SlotCycles uint64
	Complete   int // quanta fully decomposed
	Incomplete int // quanta missing booking, injection or ejection (in flight at the end of the run, or lost to ring drop)
	Dropped    uint64
	All        Agg
	PerFlow    []FlowAgg
	PerHop     []HopAgg
	Quanta     []QuantumResult // complete quanta in (flow, seq) order, one key's quanta in stream order
	Errors     []string        // timing-invariant violations; empty on a well-formed stream
}

type quantumKey struct {
	flow int32
	seq  uint64
}

type quantumBuild struct {
	qt         QuantumTrace
	haveBook   bool
	haveInject bool
	done       bool
}

// Decompose replays a probe event stream into per-quantum latency
// decompositions. slotCycles is the configuration's QuantumFlits (cycles
// per slot); dropped is the ring-drop count reported by the dump header —
// a truncated stream decomposes fine, the clipped quanta just count as
// incomplete. GSF streams carry no data-path events and yield zero quanta.
func Decompose(events []probe.Event, slotCycles, dropped uint64) (*Decomposition, error) {
	if slotCycles == 0 {
		return nil, fmt.Errorf("decompose: slotCycles must be positive")
	}
	// A stream may hold several runs (loftsim -seeds N -probe shares one
	// probe across them), and each run numbers every flow's quanta from 0
	// again, so one (flow, seq) can name one quantum per run. The NI books a
	// quantum exactly once, so a second booking of a key starts the key's
	// next quantum; each key keeps its quanta in stream order, and an
	// earlier one that never ejected counts as incomplete.
	builds := make(map[quantumKey][]*quantumBuild)
	start := func(e probe.Event) *quantumBuild {
		k := quantumKey{flow: e.Flow, seq: e.Seq}
		b := &quantumBuild{qt: QuantumTrace{Flow: e.Flow, Seq: e.Seq}}
		builds[k] = append(builds[k], b)
		return b
	}
	get := func(e probe.Event) *quantumBuild {
		if gens := builds[quantumKey{flow: e.Flow, seq: e.Seq}]; len(gens) > 0 {
			return gens[len(gens)-1]
		}
		return start(e)
	}
	for _, e := range events {
		switch e.Kind {
		case probe.KindLAIssue:
			// Only the NI's launch (Loc = injection link) is the booking
			// anchor; per-hop look-ahead issues carry slot-quantized state.
			if e.Loc != int32(topo.NumDirs) {
				continue
			}
			b := get(e)
			if b.haveBook {
				b = start(e)
			}
			b.qt.Book = e.Cycle
			b.haveBook = true
		case probe.KindDataInject:
			b := get(e)
			b.qt.Inject = e.Cycle
			b.qt.Src = e.Node
			b.haveInject = true
		case probe.KindDataForward:
			b := get(e)
			b.qt.Forwards = append(b.qt.Forwards, Forward{
				Node: e.Node, Dir: e.Loc, Cycle: e.Cycle, Booked: e.Arg,
			})
			if e.Loc == int32(topo.Local) {
				b.done = true
				b.qt.Dst = e.Node
			}
		}
	}
	d := &Decomposition{SlotCycles: slotCycles, Dropped: dropped}
	perFlow := make(map[int32]*Agg)
	keys := det.KeysFunc(builds, func(a, b quantumKey) bool {
		if a.flow != b.flow {
			return a.flow < b.flow
		}
		return a.seq < b.seq
	})
	for _, k := range keys {
		for _, b := range builds[k] {
			if !b.done || !b.haveBook || !b.haveInject {
				d.Incomplete++
				continue
			}
			c, err := b.qt.Components(slotCycles)
			if err != nil {
				d.Errors = append(d.Errors, err.Error())
				continue
			}
			d.Complete++
			d.All.observe(c)
			fa, ok := perFlow[b.qt.Flow]
			if !ok {
				fa = &Agg{}
				perFlow[b.qt.Flow] = fa
			}
			fa.observe(c)
			for i, f := range b.qt.Forwards {
				for len(d.PerHop) <= i {
					d.PerHop = append(d.PerHop, HopAgg{Hop: len(d.PerHop)})
				}
				h := &d.PerHop[i]
				h.Count++
				var prev uint64
				if i == 0 {
					prev = b.qt.Inject
				} else {
					prev = b.qt.Forwards[i-1].Cycle
				}
				h.Wait.Observe(f.Cycle - prev - slotCycles)
				if f.Spec() {
					h.Spec++
				}
			}
			d.Quanta = append(d.Quanta, QuantumResult{QuantumTrace: b.qt, Components: c})
		}
	}
	for _, fl := range det.Keys(perFlow) {
		d.PerFlow = append(d.PerFlow, FlowAgg{Flow: fl, Agg: *perFlow[fl]})
	}
	return d, nil
}

// Metrics flattens the decomposition's aggregate into the flat metric map
// manifests record and the differ compares. Empty when no quantum
// decomposed (e.g. a GSF stream).
func (d *Decomposition) Metrics() map[string]float64 {
	if d.Complete == 0 {
		return nil
	}
	s := d.All.Summary()
	return map[string]float64{
		"decomp_quanta":                     float64(s.Quanta),
		"decomp_incomplete":                 float64(d.Incomplete),
		"decomp_mean_hops":                  s.MeanHops,
		"decomp_spec_hop_pct":               s.SpecHopPct,
		"decomp_mean_total_cycles":          s.Total.Mean,
		"decomp_max_total_cycles":           float64(s.Total.Max),
		"decomp_mean_booking_wait_cycles":   s.BookingWait.Mean,
		"decomp_mean_serialization_cycles":  s.Serialization.Mean,
		"decomp_mean_lookahead_wait_cycles": s.LookaheadWait.Mean,
		"decomp_mean_spec_wait_cycles":      s.SpecWait.Mean,
		"decomp_mean_spec_saved_cycles":     s.SpecSaved.Mean,
	}
}
