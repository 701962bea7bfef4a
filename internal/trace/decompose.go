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
// a dwell shorter than one slot) — a correct stream never does — and when
// the four summed components do not add up to Total.
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
	if sum := c.BookingWait + c.Serialization + c.LookaheadWait + c.SpecWait; sum != c.Total {
		return Components{}, fmt.Errorf("flow %d seq %d: components sum to %d, not the total %d (booking-wait %d, serialization %d, lookahead-wait %d, spec-wait %d)",
			q.Flow, q.Seq, sum, c.Total, c.BookingWait, c.Serialization, c.LookaheadWait, c.SpecWait)
	}
	return c, nil
}

// agg accumulates component distributions over many quanta.
type agg struct {
	hops, specHops uint64 // crossed links, and those crossed speculatively
	total          stats.Histogram
	bookingWait    stats.Histogram
	serialization  stats.Histogram
	lookaheadWait  stats.Histogram
	specWait       stats.Histogram
	specSaved      stats.Histogram
}

func (a *agg) observe(c Components) {
	a.hops += uint64(c.Hops)
	a.specHops += uint64(c.SpecHops)
	a.total.Observe(c.Total)
	a.bookingWait.Observe(c.BookingWait)
	a.serialization.Observe(c.Serialization)
	a.lookaheadWait.Observe(c.LookaheadWait)
	a.specWait.Observe(c.SpecWait)
	a.specSaved.Observe(c.SpecSaved)
}

// ComponentStats is one component's distribution.
type ComponentStats struct {
	Mean float64 `json:"mean_cycles"`
	Max  uint64  `json:"max_cycles"`
	Hist string  `json:"histogram,omitempty"`
}

func componentStats(h *stats.Histogram) ComponentStats {
	return ComponentStats{Mean: h.Mean(), Max: h.Max(), Hist: h.String()}
}

// AggSummary is the component distributions of a set of quanta.
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

func (a *agg) summary() AggSummary {
	s := AggSummary{
		Quanta:        a.total.Count(),
		Total:         componentStats(&a.total),
		BookingWait:   componentStats(&a.bookingWait),
		Serialization: componentStats(&a.serialization),
		LookaheadWait: componentStats(&a.lookaheadWait),
		SpecWait:      componentStats(&a.specWait),
		SpecSaved:     componentStats(&a.specSaved),
	}
	if s.Quanta > 0 {
		s.MeanHops = float64(a.hops) / float64(s.Quanta)
	}
	if a.hops > 0 {
		s.SpecHopPct = 100 * float64(a.specHops) / float64(a.hops)
	}
	return s
}

// FlowSummary is one flow's component distributions.
type FlowSummary struct {
	Flow    int32      `json:"flow"`
	Summary AggSummary `json:"summary"`
}

// HopSummary is the residual wait above one slot at one hop position along
// the path (hop 0 is the first router crossing after injection).
type HopSummary struct {
	Hop      int     `json:"hop"`
	Count    uint64  `json:"count"`
	SpecPct  float64 `json:"spec_pct"` // share of the crossings that were speculative
	MeanWait float64 `json:"mean_wait_cycles"`
	MaxWait  uint64  `json:"max_wait_cycles"`
}

// hopAgg accumulates one hop position's crossings.
type hopAgg struct {
	spec uint64
	wait stats.Histogram
}

// Decomposition is the report of replaying an event stream; lofttrace
// decompose prints it as text or encodes it as JSON.
type Decomposition struct {
	SlotCycles uint64 `json:"slot_cycles"`
	Complete   int    `json:"complete"` // quanta fully decomposed
	// Incomplete counts quanta missing their booking, injection or ejection:
	// in flight at the end of a run, or clipped by the ring.
	Incomplete int           `json:"incomplete"`
	Dropped    uint64        `json:"dropped_events"`
	All        AggSummary    `json:"all"`
	PerFlow    []FlowSummary `json:"per_flow,omitempty"` // in flow order
	PerHop     []HopSummary  `json:"per_hop,omitempty"`
	// Errors lists the ejected quanta whose timeline breaks a timing
	// invariant or whose components miss the identity, in ejection order;
	// empty on a well-formed stream.
	Errors []string `json:"errors,omitempty"`
	// Metrics flattens All into the metric map manifests record and the
	// differ compares; nil when no quantum decomposed (e.g. a GSF stream).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

type quantumKey struct {
	flow int32
	seq  uint64
}

// inFlight is a quantum whose ejection the replay has not reached yet.
type inFlight struct {
	qt               QuantumTrace
	booked, injected bool
}

// Decompose replays a probe event stream into latency decompositions in
// one pass. slotCycles is the configuration's QuantumFlits (cycles per
// slot); dropped is the ring-drop count reported by the dump header — a
// truncated stream decomposes fine, the clipped quanta just count as
// incomplete. GSF streams carry no data-path events and yield zero quanta.
//
// Only quanta in flight hold state. A stream may hold several runs (loftsim
// -seeds N -probe shares one probe across them), each numbering every
// flow's quanta from 0 again, so one (flow, seq) can name one quantum per
// run. The NI books a quantum exactly once, so its booking always starts
// the key's next quantum, and whatever the key held before counts as
// incomplete. An ejection folds the quantum into the aggregates and drops
// it; whatever is left at the end of the stream is incomplete.
func Decompose(events []probe.Event, slotCycles, dropped uint64) (*Decomposition, error) {
	if slotCycles == 0 {
		return nil, fmt.Errorf("decompose: slotCycles must be positive")
	}
	d := &Decomposition{SlotCycles: slotCycles, Dropped: dropped}
	var all agg
	perFlow := make(map[int32]*agg)
	var perHop []hopAgg
	eject := func(q *inFlight) {
		if !q.booked || !q.injected {
			d.Incomplete++
			return
		}
		c, err := q.qt.Components(slotCycles)
		if err != nil {
			d.Errors = append(d.Errors, err.Error())
			return
		}
		d.Complete++
		all.observe(c)
		fa := perFlow[q.qt.Flow]
		if fa == nil {
			fa = &agg{}
			perFlow[q.qt.Flow] = fa
		}
		fa.observe(c)
		prev := q.qt.Inject
		for i, f := range q.qt.Forwards {
			if i == len(perHop) {
				perHop = append(perHop, hopAgg{})
			}
			h := &perHop[i]
			h.wait.Observe(f.Cycle - prev - slotCycles)
			if f.Spec() {
				h.spec++
			}
			prev = f.Cycle
		}
	}
	live := make(map[quantumKey]*inFlight)
	at := func(e probe.Event) *inFlight {
		k := quantumKey{flow: e.Flow, seq: e.Seq}
		q := live[k]
		if q == nil {
			q = &inFlight{qt: QuantumTrace{Flow: e.Flow, Seq: e.Seq}}
			live[k] = q
		}
		return q
	}
	for _, e := range events {
		switch e.Kind {
		case probe.KindLAIssue:
			// Only the NI's launch (Loc = injection link) is the booking
			// anchor; per-hop look-ahead issues carry slot-quantized state.
			if e.Loc != int32(topo.NumDirs) {
				continue
			}
			k := quantumKey{flow: e.Flow, seq: e.Seq}
			if _, held := live[k]; held {
				d.Incomplete++
			}
			live[k] = &inFlight{qt: QuantumTrace{Flow: e.Flow, Seq: e.Seq, Book: e.Cycle}, booked: true}
		case probe.KindDataInject:
			q := at(e)
			q.qt.Inject = e.Cycle
			q.injected = true
		case probe.KindDataForward:
			q := at(e)
			q.qt.Forwards = append(q.qt.Forwards, Forward{Dir: e.Loc, Cycle: e.Cycle, Booked: e.Arg})
			if e.Loc == int32(topo.Local) {
				delete(live, quantumKey{flow: e.Flow, seq: e.Seq})
				eject(q)
			}
		}
	}
	d.Incomplete += len(live)
	d.All = all.summary()
	for _, fl := range det.Keys(perFlow) {
		d.PerFlow = append(d.PerFlow, FlowSummary{Flow: fl, Summary: perFlow[fl].summary()})
	}
	for i := range perHop {
		h := &perHop[i]
		hs := HopSummary{Hop: i, Count: h.wait.Count(), MeanWait: h.wait.Mean(), MaxWait: h.wait.Max()}
		if hs.Count > 0 {
			hs.SpecPct = 100 * float64(h.spec) / float64(hs.Count)
		}
		d.PerHop = append(d.PerHop, hs)
	}
	if d.Complete > 0 {
		s := d.All
		d.Metrics = map[string]float64{
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
	return d, nil
}
