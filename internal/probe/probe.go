// Package probe is the simulators' observability layer: a typed event
// tracer, a registry of sampled gauges, and exporters for the
// captured data (JSONL event dumps, CSV time series and Chrome trace_event
// JSON loadable in Perfetto).
//
// The layer is zero-overhead when disabled: every component holds a *Probe
// that may be nil, and every method on *Probe is nil-receiver safe, so
// instrumentation points are unconditional calls whose fast path is a single
// pointer test. Simulation results are never affected by probing — probes
// only read state the components already maintain.
package probe

import "fmt"

// Kind is the type tag of a traced event. The set covers the mechanisms the
// paper's evaluation turns on (§4): LSF scheduling outcomes, the skipped-slot
// accounting and condition-(1) admissions behind the output scheduling
// anomaly fix, local frame recycling, the look-ahead/virtual-credit protocol,
// speculative switching, and the GSF baseline's global frame machinery.
type Kind uint8

// Event kinds. Loc and Arg are kind-specific; see the comments.
const (
	// KindReserveGrant: an LSF table booked a quantum. Loc = link, Arg =
	// booked departure slot (absolute, in cycles).
	KindReserveGrant Kind = iota
	// KindReserveDeny: an LSF request was throttled with every frame of
	// the window exhausted. Loc = link, Arg = quantum sequence.
	KindReserveDeny
	// KindFrameSkip: a flow advanced its injection frame, abandoning C
	// unused reservations into skipped(IF). Loc = link, Arg = quanta
	// abandoned.
	KindFrameSkip
	// KindCondBlock: a frame was rejected by the condition-(1) admission
	// check. Loc = link, Arg = frame index.
	KindCondBlock
	// KindFrameRecycle: the head frame advanced and the expired frame was
	// recycled (local frame recycling, Algorithm 3). Loc = link, Arg = new
	// head frame index.
	KindFrameRecycle
	// KindLocalReset: a table performed the §4.3.2 local status reset.
	// Loc = link.
	KindLocalReset
	// KindLAIssue: a look-ahead flit was issued onto a look-ahead link (or
	// launched by the NI). Loc = output direction, Arg = booked departure
	// slot on the previous link. The NI's launch (Loc = topo.NumDirs) is the
	// quantum's injection-table booking; its record carries Aux = packet
	// sequence.
	KindLAIssue
	// KindVCreditGrant: a virtual credit returned to an upstream table was
	// granted (applied to its slot ledger). Loc = upstream direction, Arg =
	// departure-slot tag.
	KindVCreditGrant
	// KindSpecAttempt: the speculative pass of switch arbitration
	// considered a candidate for an output. Loc = output direction.
	KindSpecAttempt
	// KindSpecHit: a quantum was forwarded ahead of its booked slot.
	// Loc = output direction, Arg = booked departure slot.
	KindSpecHit
	// KindSpecAbort: a speculative candidate was denied by a full
	// downstream buffer. Loc = output direction.
	KindSpecAbort
	// KindGSFFrameRoll: the GSF barrier recycled the head frame. Arg = new
	// head frame (absolute).
	KindGSFFrameRoll
	// KindGSFThrottle: a GSF source exhausted its injection window and
	// stalled (emitted on the idle→throttled edge, not every cycle).
	// Arg = head frame at the stall.
	KindGSFThrottle
	// KindDataInject: a data quantum physically left its NI into the
	// router's local input port. Loc = injection link, Seq = quantum
	// sequence, Arg = booked injection cycle, record Aux = flits. Together
	// with KindDataForward this makes per-quantum latency decomposition
	// possible offline (internal/trace).
	KindDataInject
	// KindDataForward: a data quantum crossed a switch output (Loc =
	// output direction; topo.Local = ejection into the sink). Seq =
	// quantum sequence, Arg = booked departure cycle on that link — a
	// forward with Cycle < Arg was speculative (ahead of schedule). Record
	// Aux = 1 when it went into the downstream speculative buffer.
	KindDataForward
	// KindFaultDown: a fault.Plan window armed on this node. Loc = target
	// direction (-1 for router stalls and adversary flows), Flow = target
	// flow (-1 unless adversary), Seq = fault.Kind, Arg = the cycle the
	// window lifts (0 = open-ended).
	KindFaultDown
	// KindFaultUp: a fault window lifted. Encoded like KindFaultDown.
	KindFaultUp
	// KindFaultLoss: a forward was denied by an active fault (link-down or
	// flit-loss). Loc = output direction (topo.NumDirs = injection link),
	// Arg = flits in the denied quantum. The quantum retries via the
	// overdue/emergent path.
	KindFaultLoss
	// KindFaultRetry: a previously fault-denied quantum finally crossed
	// its link. Loc = output direction, Arg = booked departure cycle.
	KindFaultRetry

	numKinds
)

// Untraced kinds: occurrences only the auditor or the statistics collectors
// consume. They travel through a Stage like the traced kinds above but never
// reach a Tracer, events.jsonl, Tracer.Count or Probe.Summary.
const (
	// KindReserve: a look-ahead flit booked its quantum's departure at a
	// hop. Loc = output direction, Seq = quantum sequence, Arg = booked
	// departure slot (slot units).
	KindReserve Kind = numKinds + iota
	// KindEject: data entered a sink. Loc = the flow's source node, Seq =
	// quantum sequence (LOFT only), Aux = flits ejected.
	KindEject
	// KindGSFInject: a GSF packet's head flit entered the network. Seq =
	// packet sequence.
	KindGSFInject
	// KindPacketDone: a packet's last flit reached its sink at Cycle. Seq =
	// packet sequence, Arg = the cycle it entered the network, Aux = the
	// cycle it was generated.
	KindPacketDone
	// KindTapViolation: an invariant tap raised a violation, which waits in
	// the pending list of the auditor's table number Arg.
	KindTapViolation
)

var kindNames = [numKinds]string{
	KindReserveGrant: "reserve-grant",
	KindReserveDeny:  "reserve-deny",
	KindFrameSkip:    "frame-skip",
	KindCondBlock:    "cond1-block",
	KindFrameRecycle: "frame-recycle",
	KindLocalReset:   "local-reset",
	KindLAIssue:      "la-issue",
	KindVCreditGrant: "vcredit-grant",
	KindSpecAttempt:  "spec-attempt",
	KindSpecHit:      "spec-hit",
	KindSpecAbort:    "spec-abort",
	KindGSFFrameRoll: "gsf-frame-roll",
	KindGSFThrottle:  "gsf-throttle",
	KindDataInject:   "data-inject",
	KindDataForward:  "data-forward",
	KindFaultDown:    "fault-down",
	KindFaultUp:      "fault-up",
	KindFaultLoss:    "fault-loss",
	KindFaultRetry:   "fault-retry",
}

// kindByName inverts kindNames for the decoders (internal/trace): the wire
// names are the stable contract, the numeric values are not.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		m[kindNames[k]] = k
	}
	return m
}()

// KindFromString returns the kind with the given wire name (the inverse of
// Kind.String), and whether the name is known.
func KindFromString(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// String returns the kind's stable wire name (used by every exporter).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", int(k))
}

// NumKinds returns the number of defined event kinds.
func NumKinds() int { return int(numKinds) }

// Event is one traced occurrence. The struct is fixed-size and pointer-free
// so the ring buffer is a flat allocation the garbage collector never scans.
type Event struct {
	Cycle uint64
	Kind  Kind
	Node  int32  // node id; -1 when not applicable
	Loc   int32  // kind-specific location (link/direction/frame); -1 n/a
	Flow  int32  // flow id; -1 when not applicable
	Seq   uint64 // per-flow quantum sequence; 0 when not applicable
	Arg   uint64
}

// Tracer is a fixed-capacity event ring buffer. When full, the oldest events
// are overwritten: the tail of a run is usually the interesting part, and a
// bounded buffer keeps tracing safe to leave enabled on long runs.
type Tracer struct {
	buf    []Event
	next   int
	total  uint64
	counts [numKinds]uint64
}

// NewTracer returns a tracer holding up to capacity events.
func NewTracer(capacity int) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// Emit records one event. Nil tracers discard silently.
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.total++
	t.counts[e.Kind]++
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
		return
	}
	t.buf[t.next] = e
	if t.next++; t.next == len(t.buf) {
		t.next = 0
	}
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.buf)
}

// Total returns the number of events ever emitted (including overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	return t.total
}

// Dropped returns how many events were overwritten by ring wrap.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.total - uint64(len(t.buf))
}

// Count returns the number of events of kind k ever emitted (ring wrap does
// not affect counts).
func (t *Tracer) Count(k Kind) uint64 {
	if t == nil {
		return 0
	}
	return t.counts[k]
}

// Events returns the retained events in emission order.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	out := make([]Event, 0, len(t.buf))
	out = append(out, t.buf[t.next:]...)
	out = append(out, t.buf[:t.next]...)
	return out
}

// Config sizes a Probe.
type Config struct {
	// EventCap bounds the event ring buffer (default 1<<20 events).
	EventCap int
	// SampleEvery is the gauge sampling period in cycles; 0 disables the
	// time-series sampler.
	SampleEvery uint64
}

// Probe bundles a tracer and a metrics registry. A nil *Probe is the
// disabled state: every method is nil-receiver safe and components keep
// their *Probe unconditionally, so instrumentation points need no flags.
//
// A Probe is a serial-only sink: Emit and MaybeSample mutate the shared
// tracer and registry, so they may only run on the coordinator
// (commit-phase) side of a cycle. Compute-phase code emits through a Stage
// instead; a compute-phase call into the Probe is a data race that `go test
// -race` reports on the two-worker goldens.
type Probe struct {
	tracer      *Tracer
	reg         *Registry
	sampleEvery uint64
}

// Record is one staged occurrence: an Event plus one kind-specific word the
// tracer never stores (see the kind comments). Like Event it is fixed-size
// and pointer-free.
type Record struct {
	Event
	Aux uint64
}

// KindSet is a set of kinds, traced or not.
type KindSet uint32

// TracedKinds is the set a Tracer consumes.
const TracedKinds = KindSet(1)<<numKinds - 1

// KindSetOf returns the set holding ks.
func KindSetOf(ks ...Kind) KindSet {
	var s KindSet
	for _, k := range ks {
		s |= 1 << k
	}
	return s
}

// Has reports whether k is in the set.
func (s KindSet) Has(k Kind) bool { return s>>k&1 != 0 }

// Stage is the per-node staging buffer for everything a node reports about
// the simulation: the node appends records while it computes (no shared
// state is touched), and the owner of the stage drains them at the cycle
// barrier and routes each to the consumers whose kind set holds it. The
// stage knows which kinds some consumer wants and stages nothing else.
// Call sites whose arguments take real work to compute guard the emission
// with Wants(k), or with a nil check where the stage pointer is only set
// when the kinds emitted there are wanted; a call site without the guard
// costs its argument evaluation and a call, never a staged record.
type Stage struct {
	want KindSet
	recs []Record
}

// NewStage returns a stage whose consumers want the kinds in want.
func NewStage(want KindSet) Stage { return Stage{want: want} }

// Reserve makes the stage stage into buf's storage, which a cycle that
// stages more than cap(buf) records outgrows by reallocating. It is for
// setup, on an empty stage.
func (s *Stage) Reserve(buf []Record) { s.recs = buf[:0] }

// Wants reports whether some consumer wants kind k.
func (s *Stage) Wants(k Kind) bool { return s.want.Has(k) }

// Kinds returns the kinds some consumer wants.
func (s *Stage) Kinds() KindSet { return s.want }

// Emit stages one record.
func (s *Stage) Emit(cycle uint64, k Kind, node, loc, flow int32, arg uint64) {
	s.EmitAux(cycle, k, node, loc, flow, 0, arg, 0)
}

// EmitSeq stages one record carrying a per-flow quantum sequence. The
// data-path kinds use it so offline analysis can reassemble exact
// per-quantum timelines.
func (s *Stage) EmitSeq(cycle uint64, k Kind, node, loc, flow int32, seq, arg uint64) {
	s.EmitAux(cycle, k, node, loc, flow, seq, arg, 0)
}

// EmitAux stages one record carrying a sequence and the kind's aux word,
// when some consumer wants kind k.
func (s *Stage) EmitAux(cycle uint64, k Kind, node, loc, flow int32, seq, arg, aux uint64) {
	if !s.want.Has(k) {
		return
	}
	s.recs = append(s.recs, Record{Event{Cycle: cycle, Kind: k, Node: node, Loc: loc, Flow: flow, Seq: seq, Arg: arg}, aux})
}

// Drain returns the staged records in emission order and empties the stage;
// the slice is valid until the next emission (the backing array is kept, so
// steady-state cycles stop reallocating). Serial-only: the harness calls it
// from the commit phase, in node-id order.
func (s *Stage) Drain() []Record {
	recs := s.recs
	s.recs = s.recs[:0]
	return recs
}

// New returns an enabled probe.
func New(cfg Config) *Probe {
	if cfg.EventCap <= 0 {
		cfg.EventCap = 1 << 20
	}
	return &Probe{
		tracer:      NewTracer(cfg.EventCap),
		reg:         &Registry{},
		sampleEvery: cfg.SampleEvery,
	}
}

// Emit records one event (no-op when disabled). Serial-only: compute-phase
// code goes through a Stage instead.
func (p *Probe) Emit(cycle uint64, k Kind, node, loc, flow int32, arg uint64) {
	if p == nil {
		return
	}
	p.tracer.Emit(Event{Cycle: cycle, Kind: k, Node: node, Loc: loc, Flow: flow, Arg: arg})
}

// Tracer returns the underlying tracer (nil when disabled).
func (p *Probe) Tracer() *Tracer {
	if p == nil {
		return nil
	}
	return p.tracer
}

// Registry returns the metrics registry (nil when disabled). Components
// register gauges at construction; a nil registry ignores registrations.
func (p *Probe) Registry() *Registry {
	if p == nil {
		return nil
	}
	return p.reg
}

// MaybeSample records one gauge sample when now falls on the
// sampling period. Networks call it once per cycle.
func (p *Probe) MaybeSample(now uint64) {
	if p == nil || p.sampleEvery == 0 || now%p.sampleEvery != 0 {
		return
	}
	p.reg.Sample(now)
}

// Events returns the retained events in emission order.
func (p *Probe) Events() []Event { return p.Tracer().Events() }

// Series returns every recorded time series.
func (p *Probe) Series() []Series {
	if p == nil {
		return nil
	}
	return p.reg.Series()
}

// Summary returns per-kind event totals as "name: count" lines, skipping
// kinds that never fired.
func (p *Probe) Summary() []string {
	if p == nil {
		return nil
	}
	var out []string
	for k := Kind(0); k < numKinds; k++ {
		if c := p.tracer.Count(k); c > 0 {
			out = append(out, fmt.Sprintf("%s: %d", k, c))
		}
	}
	if d := p.tracer.Dropped(); d > 0 {
		out = append(out, fmt.Sprintf("(ring dropped %d oldest events)", d))
	}
	return out
}
