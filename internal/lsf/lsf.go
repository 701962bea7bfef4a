// Package lsf implements the paper's primary contribution: the
// locally-synchronized-frame (LSF) output scheduler integrated with
// flit-reservation flow control (§3.1, §4).
//
// Each output link of every router (plus every injection and ejection link)
// owns one Table: a framed output reservation table (Fig. 7). The table is a
// ring of WT = F·WF time slots, each one quantum (Q data flits) wide,
// carrying a busy flag and a virtual-credit count (Fig. 5). Slots are grouped
// into WF frames of F slots. Per contending flow the table keeps the
// injection frame IF_ij, the remaining reservation C_ij and the allocated
// reservation R_ij; scheduling requests follow Algorithm 1 and Algorithm 2
// of the paper, extended with the per-frame skipped(i) counters and
// admission condition (1) that eliminate the output scheduling anomaly
// (§4.2), and with the local status reset of §4.3.2.
//
// Virtual credits use the cumulative semantics of the appendix (eq. 3): the
// credit of a slot counts downstream non-speculative buffer space at that
// future time, assuming scheduled timing. Scheduling a quantum at slot t
// decrements the credit of every slot from t to the window end; a credit
// return tagged with the downstream departure time t increments every slot
// from t onward. When the current-slot pointer advances, the recycled slot
// inherits the credit of the previously farthest slot, continuing the
// cumulative sums across the ring seam.
//
// The credits are a step function of the window offset, so the table stores
// its steps rather than its values: the credit at the current slot, the
// credit at the window end, and per slot the difference from the slot before
// it, with a bitset of the slots (breakpoints) where that difference is not
// zero. A booking or a return is one difference edit; the checks that need
// values — zero and overflow detection, the last zero-credit slot, CreditAt
// — walk only the breakpoints, and a reset clears only those. Tables far
// from empty or full have a handful of breakpoints in a window of hundreds
// of slots.
//
// The rest of the ring is stored as dense columns indexed by ring position
// rather than as one record per slot: a busy bitset of 64 slots per word and
// owner words that are meaningful only under a set busy bit. The busy scans
// (the first booked slot, the first free slot of a frame) are trailing-zero
// counts over the bitset words.
//
// All quantities in this package are in quantum slots, not flits.
package lsf

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/probe"
)

// Params sizes a Table.
type Params struct {
	// SlotsPerFrame is F in quantum slots (frame size in flits / Q).
	SlotsPerFrame int
	// Frames is WF, the frame window size.
	Frames int
	// BufferQuanta is BN: the downstream non-speculative input buffer
	// capacity in quanta. Theorem I requires BufferQuanta >= SlotsPerFrame.
	BufferQuanta int
	// Strict enables invariant panics (Theorem I: credits in [0, BN]).
	// Simulation tests run strict; production callers may prefer counters.
	Strict bool
	// Yield enables the buffer-yield admission policy for frames beyond
	// the head frame (the fairness intent of the paper's condition (1);
	// see conditionOne). Safety never depends on it — the constructive
	// Theorem I check in trySchedule always applies — and it penalizes
	// flows whose quanta arrive with late earliest-departure constraints
	// (long congested paths), so it defaults to off; the yield study of
	// exp.Ablations runs it.
	Yield bool
}

// Validate reports sizing errors.
func (p Params) Validate() error {
	switch {
	case p.SlotsPerFrame < 1:
		return fmt.Errorf("lsf: frame of %d slots", p.SlotsPerFrame)
	case p.Frames < 2:
		return fmt.Errorf("lsf: frame window %d < 2", p.Frames)
	case p.BufferQuanta < p.SlotsPerFrame:
		return fmt.Errorf("lsf: buffer %d quanta < frame %d slots violates the Theorem I precondition", p.BufferQuanta, p.SlotsPerFrame)
	case p.BufferQuanta > math.MaxInt32:
		return fmt.Errorf("lsf: buffer %d quanta overflows the int32 credit steps", p.BufferQuanta)
	}
	return nil
}

// Owner identifies the quantum holding a busy slot.
type Owner struct {
	Flow    flit.FlowID
	Quantum uint64
}

// flowState is 32 bytes: every table holds one per contending flow, and
// with all-links traffic that is every flow of the network.
type flowState struct {
	// lastReq is the slot of the flow's most recent scheduling request;
	// the yield condition only protects reservations of recently-active
	// flows (a 1-bit activity flag per flow in hardware).
	lastReq uint64
	r       int32 // R_ij in quanta per frame
	ifr     int32 // IF_ij, injection frame index (valid while live)
	c       int32 // C_ij, remaining reservation in the injection frame (valid while live)
	// next links the live flows (see Table.live); -1 ends the list.
	next   int32
	active bool
	live   bool
}

// Stats counts scheduler events for the experiment reports.
type Stats struct {
	Requests     uint64 // scheduling attempts (Algorithm 1 invocations)
	Scheduled    uint64 // successful bookings
	Throttled    uint64 // requests denied with all frames exhausted
	FrameSkips   uint64 // injection-frame advances (line 12-14 of Alg. 1)
	CondBlocks   uint64 // frames rejected by condition (1)
	Resets       uint64 // local status resets (§4.3.2)
	CreditClamps uint64 // credit updates clamped in non-strict mode
}

// Table is one framed output reservation table with its scheduler state.
type Table struct {
	p    Params
	name label.Label
	wt   int // total slots = SlotsPerFrame * Frames
	// The reservation table proper, one column per field, indexed by ring
	// position: bit i%64 of busy[i/64] is slot i's busy flag and own[2i],
	// own[2i+1] the flow and quantum holding it. The owner words are valid
	// only while the busy bit is set, so freeing a slot clears one bit.
	//
	// The virtual credits are stored as steps: base is the credit at cp and
	// end the credit at the window end; delta[i] is slot i's credit minus
	// the credit of the slot before it in window order, and bit i%64 of
	// bp[i/64] is set exactly when delta[i] != 0. delta[cp] is always 0,
	// and end == base + Σ delta. NewTables cuts delta, skipped and index
	// from one int32 array and busy, bp and own from one uint64 array, each
	// shared by every table built in the same call.
	base, end int
	delta     []int32
	bp        []uint64
	busy      []uint64
	own       []uint64
	cp        int     // ring index of the current slot
	hf        int     // head frame: the frame holding cp (Algorithm 3's HF)
	now       uint64  // absolute slot time of the current slot
	skipped   []int32 // per-frame yielded reservations (quanta)
	// flows holds the contending flows' state by value in registration
	// order; index maps a flit.FlowID (traffic assigns ids contiguously from
	// zero, so it stays small) to its position in flows plus one, 0 for an
	// unregistered id. The per-request lookup is the hottest read in the
	// simulator.
	//
	// Only the flows that requested since the last reset are live: they are
	// linked from live through flowState.next, and only they carry their own
	// IF and C. Every other flow reads as IF = HF, C = R, which every frame
	// edge preserves, so the frame-edge update walks the live list and a
	// reset unlinks it.
	flows       []flowState
	index       []int32
	live        int32
	sumR        int // admission accounting: Σ R_ij over contending flows
	outstanding int // scheduled quanta minus returned virtual credits
	busyCount   int
	// lastZero is the largest window offset whose slot has zero credit
	// (-1 when none): bookings are only safe strictly above it. Maintained
	// exactly by every credit mutation so firstSafeOffset is O(1).
	lastZero int
	// dirty marks scheduler state diverged from fresh (any Request since
	// the last reset); the reset trigger checks it so idle links reset
	// once instead of every slot.
	dirty bool
	// version increments whenever table state changes in a way that could
	// turn a previously-denied request into a success (tick, credit
	// return, busy clear, reset). Callers use it to suppress busy-wait
	// retries of throttled flows.
	version uint64
	stats   Stats

	// em receives the records of the kinds in want (nil and empty, the
	// one-branch guard, when nothing observes the table), stamped with
	// pNode, pLink and the slot time scaled to cycles by slotCycles.
	em           Emitter
	want         probe.KindSet
	pNode, pLink int32
	slotCycles   uint64

	// fault arms a deliberate corruption for the auditor's own tests.
	fault Fault
}

// Emitter receives a table's records: probe.Stage's EmitSeq method set. A
// node's stage is one; the auditor's table tap is another, which forwards
// each record to the node's stage and then checks the table against it.
type Emitter interface {
	EmitSeq(cycle uint64, k probe.Kind, node, loc, flow int32, seq, arg uint64)
}

// Kinds are the record kinds a table emits.
var Kinds = probe.KindSetOf(probe.KindReserveGrant, probe.KindCondBlock, probe.KindReserveDeny,
	probe.KindFrameSkip, probe.KindFrameRecycle, probe.KindVCreditGrant, probe.KindLocalReset)

// Spec describes one table of NewTables: its name and the flows it will
// register, as their number and one more than their largest id. AddFlow
// within the spec allocates nothing; past it the flow state grows.
type Spec struct {
	Name  label.Label
	Flows int
	IDs   int
}

// NewTables returns one empty table per spec, all sharing three arrays: the
// credit steps, skipped counters and flow-id indexes of every table are cut
// from one int32 array, the busy, breakpoint and owner words from one uint64
// array, and the flow state from one array. A LOFT node holds its tables
// this way, so building them costs four allocations however many flows they
// carry. It panics on invalid params (a configuration bug, validated earlier
// by config).
func NewTables(p Params, specs []Spec) []Table {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	wt := p.SlotsPerFrame * p.Frames
	nw := (wt + 63) / 64
	nInts, nFlows := 0, 0
	for _, s := range specs {
		nInts += wt + p.Frames + s.IDs
		nFlows += s.Flows
	}
	ints := make([]int32, nInts)
	words := make([]uint64, len(specs)*(2*nw+2*wt))
	flows := make([]flowState, nFlows)
	tables := make([]Table, len(specs))
	for i, s := range specs {
		tables[i] = Table{
			p:        p,
			name:     s.Name,
			wt:       wt,
			base:     p.BufferQuanta,
			end:      p.BufferQuanta,
			delta:    carve(&ints, wt),
			skipped:  carve(&ints, p.Frames),
			index:    carve(&ints, s.IDs),
			busy:     carve(&words, nw),
			bp:       carve(&words, nw),
			own:      carve(&words, 2*wt),
			flows:    carve(&flows, s.Flows)[:0],
			live:     -1,
			lastZero: -1,
			// Until SetStamp, records are stamped in slot times.
			slotCycles: 1,
		}
	}
	return tables
}

// carve cuts the next n elements off *buf, capped at n so that growing the
// piece reallocates instead of running into its neighbour.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// NewTable returns one empty table: the one-spec case of NewTables, with
// flow state that grows as flows register.
func NewTable(name string, p Params) *Table {
	return &NewTables(p, []Spec{{Name: label.Fixed(name)}})[0]
}

// Name returns the table's diagnostic name.
func (t *Table) Name() string { return t.name.String() }

// SetStamp sets the node and link the table's records name and the cycles
// per slot their timestamps are scaled by.
func (t *Table) SetStamp(node, link int32, cyclesPerSlot int) {
	t.pNode = node
	t.pLink = link
	t.slotCycles = uint64(cyclesPerSlot)
}

// SetEmitter attaches the table's one observer for the records of the kinds
// in want, and makes no call for the others; nil or no kinds detaches it.
func (t *Table) SetEmitter(e Emitter, want probe.KindSet) {
	if t.em, t.want = e, want&Kinds; e == nil || t.want == 0 {
		t.em, t.want = nil, 0
	}
}

// emit records one probe event stamped with the current slot time. seq is
// the per-flow quantum sequence for flow-scoped events (0 when the event is
// not about one quantum).
func (t *Table) emit(k probe.Kind, flow int32, seq, arg uint64) {
	if t.want.Has(k) {
		t.em.EmitSeq(t.now*t.slotCycles, k, t.pNode, t.pLink, flow, seq, arg)
	}
}

// Observed reports whether an emitter is attached: then every Tick may
// stage records, and Advance ticks one slot at a time.
func (t *Table) Observed() bool { return t.em != nil }

// Stats returns a snapshot of the event counters.
func (t *Table) Stats() Stats { return t.stats }

// flow returns flow id's state, or nil when unregistered.
func (t *Table) flow(id flit.FlowID) *flowState {
	if uint(id) >= uint(len(t.index)) || t.index[id] == 0 {
		return nil
	}
	return &t.flows[t.index[id]-1]
}

// AddFlow registers a contending flow with reservation r quanta per frame.
// It enforces the LSF admission constraint Σ R_ij ≤ F.
func (t *Table) AddFlow(id flit.FlowID, r int) error {
	if r < 1 {
		return fmt.Errorf("lsf: flow %d reservation %d < 1 quantum on %s", id, r, t.Name())
	}
	if id < 0 {
		return fmt.Errorf("lsf: negative flow id %d on %s", id, t.Name())
	}
	if t.flow(id) != nil {
		return fmt.Errorf("lsf: flow %d registered twice on %s", id, t.Name())
	}
	if t.sumR+r > t.p.SlotsPerFrame {
		return fmt.Errorf("lsf: ΣR %d+%d exceeds frame size %d on %s", t.sumR, r, t.p.SlotsPerFrame, t.Name())
	}
	t.sumR += r
	if n := int(id) + 1; n > len(t.index) {
		t.index = slices.Grow(t.index, n-len(t.index))[:n]
	}
	// Initialize: IF ← HF, C ← R (Algorithm 1 lines 1-2), which a flow
	// that is not live reads as.
	t.flows = append(t.flows, flowState{r: int32(r)})
	t.index[id] = int32(len(t.flows))
	return nil
}

// HasFlow reports whether the flow is registered.
func (t *Table) HasFlow(id flit.FlowID) bool { return t.flow(id) != nil }

// Reservation returns R_ij in quanta for a registered flow (0 otherwise).
func (t *Table) Reservation(id flit.FlowID) int {
	if st := t.flow(id); st != nil {
		return int(st.r)
	}
	return 0
}

// NowSlot returns the absolute time of the current slot.
func (t *Table) NowSlot() uint64 { return t.now }

// HeadFrame returns the head frame index (exported for tests/diagnostics).
func (t *Table) HeadFrame() int { return t.hf }

// ring returns the ring index of absolute slot time s, which must lie in
// the live window [now, now+WT).
func (t *Table) ring(s uint64) int {
	d := s - t.now
	if d >= uint64(t.wt) {
		panic(fmt.Sprintf("lsf: slot %d outside window [%d,%d) on %s", s, t.now, t.now+uint64(t.wt), t.Name()))
	}
	return t.at(int(d))
}

// at returns the ring index of window offset o in [0, WT).
func (t *Table) at(o int) int {
	if p := t.cp + o; p < t.wt {
		return p
	}
	return t.cp + o - t.wt
}

// bit locates ring index p's flag in a bitset: its word and its mask.
func bit(p int) (int, uint64) { return p >> 6, 1 << uint(p&63) }

// nextBit returns the first ring index in [p, end) whose bit is set in
// words, or end when there is none.
func nextBit(words []uint64, p, end int) int {
	for p < end {
		if m := words[p>>6] >> uint(p&63); m != 0 {
			return min(p+bits.TrailingZeros64(m), end)
		}
		p = (p | 63) + 1
	}
	return end
}

// nextSet returns the first window offset at or after o whose bit is set in
// words (busy or bp), or WT when there is none: the ring from cp+o to its
// end, then from 0 up to cp.
func (t *Table) nextSet(words []uint64, o int) int {
	p := t.cp + o
	if p < t.wt {
		if q := nextBit(words, p, t.wt); q < t.wt {
			return q - t.cp
		}
		p = t.wt
	}
	return nextBit(words, p-t.wt, t.cp) + t.wt - t.cp
}

// nextBreak returns the window offset of the first breakpoint after offset
// o, or WT when none follows.
func (t *Table) nextBreak(o int) int { return t.nextSet(t.bp, o+1) }

// shift adds v to the credit of every slot from window offset o to the
// window end: the credit at cp for o == 0, else one step.
func (t *Table) shift(o, v int) {
	t.end += v
	if o == 0 {
		t.base += v
		return
	}
	p := t.at(o)
	t.step(p, t.delta[p]+int32(v))
}

// step sets ring index p's step to d and its breakpoint bit to d != 0.
func (t *Table) step(p int, d int32) {
	t.delta[p] = d
	if w, b := bit(p); d != 0 {
		t.bp[w] |= b
	} else {
		t.bp[w] &^= b
	}
}

// creditAt returns the credit at window offset o: base plus the steps up to
// o.
func (t *Table) creditAt(o int) int {
	c := t.base
	for b := t.nextBreak(0); b <= o; b = t.nextBreak(b) {
		c += int(t.delta[t.at(b)])
	}
	return c
}

// owner returns the owner words of ring index p as an Owner.
func (t *Table) owner(p int) Owner {
	return Owner{Flow: flit.FlowID(t.own[2*p]), Quantum: t.own[2*p+1]}
}

// Tick advances the current-slot pointer by one slot (Algorithm 3). The
// expired slot is recycled as the new farthest-future slot, inheriting the
// cumulative credit of the previously farthest slot: its step is zero, so
// the window end keeps its credit, and the new current slot's step folds
// into base. When the pointer
// crosses a frame boundary the head frame advances: flows stuck at the old
// head frame move on with replenished reservations and the recycled frame's
// skipped counter resets.
//
// Tick runs inside the parallel compute phase (each table belongs to one
// node's shard), so everything it reaches must stage its shared-state
// effects — the auditor's tap reads each record the table emits, and a
// violation it raises waits behind a marker in the node's record stream.
func (t *Table) Tick() {
	t.version++
	old := t.cp
	t.now++
	// Recycle the expired slot into the farthest-future position.
	if w, b := bit(old); t.busy[w]&b != 0 {
		t.busy[w] &^= b
		t.busyCount--
	}
	// Window offsets shift down by one; the recycled slot becomes the
	// farthest offset.
	if t.lastZero >= 0 {
		t.lastZero--
	}
	if t.end == 0 {
		t.lastZero = t.wt - 1
	}
	t.cp++
	if p := t.at(0); t.delta[p] != 0 {
		t.base += int(t.delta[p])
		t.step(p, 0)
	}
	if t.cp == (t.hf+1)*t.p.SlotsPerFrame {
		t.frameEdge()
	}
}

// frameEdge advances the head frame once CP has reached the end of it:
// flows stuck at the old head frame move on with replenished reservations
// and the recycled frame's skipped counter resets.
func (t *Table) frameEdge() {
	oldHF := t.hf
	t.hf++
	if t.cp == t.wt {
		t.cp, t.hf = 0, 0
	}
	for i := t.live; i >= 0; i = t.flows[i].next {
		if st := &t.flows[i]; int(st.ifr) == oldHF {
			st.ifr = int32(t.hf)
			st.c = min(st.r, st.c+st.r)
		}
	}
	t.skipped[oldHF] = 0
	t.emit(probe.KindFrameRecycle, -1, 0, uint64(t.hf))
}

// Advance is exactly k Ticks. A table with a busy slot, or with an emitter
// attached (each Tick may stage records), ticks k times. Any
// other table moves arithmetically, in O(breakpoints + frame edges): no slot
// expires busy, the window end keeps its credit, and the steps of the k
// slots that became current fold into base. Once WF frame edges have passed,
// every live flow sits at the head frame with C = R and every skipped
// counter is zero, so each further whole turn of the ring returns the table
// to the same state and is skipped.
func (t *Table) Advance(k uint64) {
	if t.busyCount != 0 || t.Observed() {
		for ; k > 0; k-- {
			t.Tick()
		}
		return
	}
	if k == 0 {
		return
	}
	t.version += k
	t.now += k
	wt := uint64(t.wt)
	switch {
	case t.end == 0:
		t.lastZero = t.wt - 1
	case uint64(t.lastZero+1) <= k:
		t.lastZero = -1
	default:
		t.lastZero -= int(k)
	}
	if k >= wt {
		t.base = t.end
		t.clearSteps()
	} else {
		for b := t.nextBreak(0); b <= int(k); b = t.nextBreak(b) {
			p := t.at(b)
			t.base += int(t.delta[p])
			t.step(p, 0)
		}
	}
	F := uint64(t.p.SlotsPerFrame)
	for edges := 0; ; {
		toEdge := uint64(t.hf+1)*F - uint64(t.cp)
		if k < toEdge {
			t.cp += int(k)
			return
		}
		k -= toEdge
		t.cp += int(toEdge)
		t.frameEdge()
		if edges++; edges == t.p.Frames {
			k %= wt
		}
	}
}

// conditionOne gates injection into frames beyond the head frame,
// implementing the stated intent of the paper's condition (1): "let
// aggressive flows voluntarily yield buffer space to moderate flows"
// (§4.2). A flow may book into non-head frame f only if the eventual
// downstream buffer space (the window-end cumulative credit, BN minus
// outstanding quanta) exceeds the unspent reservations of recently-active
// flows still injecting into earlier frames — those moderates get first
// claim on the buffer.
//
// Deviation from the paper's literal formula, documented in DESIGN.md: the
// published inequality F − skipped(IF) ≤ credit(Prior) degenerates with the
// paper's own WF=2 configuration. skipped(f) only accumulates when a flow
// advances OUT of frame f, which for the last window frame is impossible
// (the next frame is the head), and skipped(HF) is reset at the very
// recycle that would make it useful — so the literal condition reduces to
// "zero outstanding credits", which both deadlocks the network (a wedged
// chain of tables each waiting for the next) and contradicts the paper's
// own worked example. Safety (Theorem I) does not depend on this choice:
// trySchedule enforces the non-negative-credit invariant constructively.
// The skipped counters are still maintained for accounting and diagnostics.
func (t *Table) conditionOne(self *flowState, f int) bool {
	if !t.p.Yield || f == t.hf {
		return true
	}
	rank := (f - t.hf + t.p.Frames) % t.p.Frames
	headStart := t.now - uint64(t.cp-t.hf*t.p.SlotsPerFrame)
	ahead := 0
	for i := range t.flows {
		st := &t.flows[i]
		if st == self || !st.active {
			continue
		}
		// Activity expires after one frame without requests.
		if st.lastReq+uint64(t.p.SlotsPerFrame) < headStart {
			continue
		}
		if ifr, c := t.state(st); (ifr-t.hf+t.p.Frames)%t.p.Frames < rank {
			ahead += c
		}
	}
	return t.end > ahead
}

// state returns a flow's IF and C: its own while live, else HF and R.
func (t *Table) state(st *flowState) (ifr, c int) {
	if st.live {
		return int(st.ifr), int(st.c)
	}
	return t.hf, int(st.r)
}

// Request runs the injection procedure of Algorithm 1 for one quantum of
// flow f, identified by its per-flow quantum sequence number. The quantum
// cannot depart before minSlot (data arrival plus router pipeline). On
// success it returns the booked absolute departure slot.
//
// A false result means the flow is throttled: its reservations in every
// frame of the window are exhausted (or unusable), and the caller must
// retry after the head frame advances.
//
// Like Tick, Request runs inside the parallel compute phase, called from
// the owning node's look-ahead router during its shard's tick.
func (t *Table) Request(f flit.FlowID, quantum uint64, minSlot uint64) (uint64, bool) {
	st := t.flow(f)
	if st == nil {
		panic(fmt.Sprintf("lsf: request from unregistered flow %d on %s", f, t.Name()))
	}
	t.stats.Requests++
	t.dirty = true
	st.lastReq = t.now
	st.active = true
	if !st.live {
		st.ifr, st.c = int32(t.hf), st.r
		st.live, st.next = true, t.live
		t.live = t.index[f] - 1
	}
	if minSlot <= t.now {
		minSlot = t.now + 1
	}
	minValid := t.firstSafeOffset()
	for {
		ifr := int(st.ifr)
		if st.c > 0 {
			if t.conditionOne(st, ifr) {
				if slot, ok := t.trySchedule(f, quantum, ifr, minSlot, minValid); ok {
					st.c--
					t.stats.Scheduled++
					t.emit(probe.KindReserveGrant, int32(f), quantum, slot*t.slotCycles)
					return slot, true
				}
			} else {
				t.stats.CondBlocks++
				t.emit(probe.KindCondBlock, int32(f), quantum, uint64(st.ifr))
			}
		}
		next := (ifr + 1) % t.p.Frames
		if next == t.hf {
			t.stats.Throttled++
			t.emit(probe.KindReserveDeny, int32(f), quantum, quantum)
			return 0, false
		}
		// Advancing abandons the unused reservation: record it in the
		// skipped counter of the frame being left (§4.2).
		if t.fault != FaultDropSkipped {
			t.skipped[ifr] += st.c
		}
		t.emit(probe.KindFrameSkip, int32(f), quantum, uint64(st.c))
		st.c = min(st.r, st.c+st.r)
		st.ifr = int32(next)
		t.stats.FrameSkips++
	}
}

// trySchedule is Algorithm 2: scan frame f for a valid slot (not busy,
// positive virtual credit, at or after minSlot) and book it.
//
// Validity additionally requires that the booking keeps every later slot's
// credit positive (the booking decrements the whole suffix): this is the
// Theorem I invariant enforced constructively, closing the out-of-order
// overbooking anomaly of §4.2 for head-frame bookings where condition (1)
// does not apply.
func (t *Table) trySchedule(fl flit.FlowID, quantum uint64, f int, minSlot uint64, minValid int) (uint64, bool) {
	// Frame f is the ring interval [lo, end): contiguous, so its window
	// offsets are p-cp, plus WT for a frame behind CP in the ring. The head
	// frame's scan starts one past CP.
	lo, end := f*t.p.SlotsPerFrame, (f+1)*t.p.SlotsPerFrame
	wrap := 0
	if f == t.hf {
		lo = t.cp + 1
	} else if f < t.hf {
		wrap = t.wt
	}
	// Jump directly to the first offset satisfying both the safety
	// threshold and the arrival constraint; scanning below it is futile.
	minOff := max(lo-t.cp+wrap, minValid)
	if minSlot > t.now {
		if d := int(minSlot - t.now); d > minOff {
			minOff = d
		}
	}
	// Find the first free slot from there to the frame end, a bitset word
	// at a time. A free slot can still lack credit: FaultLeakCredit leaves
	// zero-credit slots above the safety threshold by design.
	for p := t.cp + minOff - wrap; p < end; p++ {
		free := ^t.busy[p>>6] >> uint(p&63)
		if free == 0 {
			p |= 63
			continue
		}
		if p += bits.TrailingZeros64(free); p >= end {
			break
		}
		off := p - t.cp + wrap
		c := t.creditAt(off)
		if c <= 0 {
			continue
		}
		w, b := bit(p)
		t.busy[w] |= b
		t.own[2*p], t.own[2*p+1] = uint64(fl), quantum
		t.busyCount++
		t.shift(off, -1)
		t.settle(off, c-1)
		t.outstanding++
		return t.now + uint64(off), true
	}
	return 0, false
}

// firstSafeOffset returns the smallest window offset at which a booking
// keeps every later slot's credit positive: one past the last zero-credit
// slot (credits are non-negative by the Theorem I invariant).
func (t *Table) firstSafeOffset() int { return t.lastZero + 1 }

// settle walks the runs of equal credit from window offset off, whose
// credit is c, to the window end, after a booking lowered or a return raised
// every credit from off onward by one. A run outside [0, BN] held 0 or BN
// before, so it starts at off or at a breakpoint; it violates Theorem I, so
// strict mode panics, and otherwise the run is clamped into range with two
// step edits, one CreditClamps per slot. A run at zero moves lastZero up to
// its last slot.
func (t *Table) settle(off, c int) {
	for {
		next := t.nextBreak(off)
		if v := min(max(c, 0), t.p.BufferQuanta); v != c {
			switch {
			case t.p.Strict && c < 0:
				panic(fmt.Sprintf("lsf: negative virtual credit on %s (Theorem I violation)", t.Name()))
			case t.p.Strict:
				panic(fmt.Sprintf("lsf: virtual credit above capacity on %s", t.Name()))
			}
			t.shift(off, v-c)
			if next < t.wt {
				t.shift(next, c-v)
			}
			t.stats.CreditClamps += uint64(next - off)
			c = v
		}
		if c == 0 {
			t.lastZero = max(t.lastZero, next-1)
		}
		if next == t.wt {
			return
		}
		off = next
		c += int(t.delta[t.at(off)])
	}
}

// ReturnCredit applies a virtual credit return tagged with the downstream
// departure slot: every live slot at or after the tag gains one credit.
// Tags at or before the current slot increment the whole window.
func (t *Table) ReturnCredit(tag uint64) {
	from := 0
	if tag > t.now {
		if tag >= t.now+uint64(t.wt) {
			panic(fmt.Sprintf("lsf: credit return tag %d beyond window on %s", tag, t.Name()))
		}
		from = int(tag - t.now)
	}
	if t.fault == FaultLeakCredit {
		// Deliberate corruption (see Fault): count the return without
		// crediting any slot.
		t.finishReturn(from, tag)
		return
	}
	t.shift(from, 1)
	t.settle(from, t.creditAt(from))
	t.finishReturn(from, tag)
}

// finishReturn completes ReturnCredit's bookkeeping after the credit update.
func (t *Table) finishReturn(from int, tag uint64) {
	// Every slot from the tag onward is now positive: if the last zero was
	// in that range, rescan below the tag for the new last zero.
	if t.lastZero >= from {
		t.lastZero = -1
		c := t.base
		for off := 0; off < from; {
			next := t.nextBreak(off)
			if c == 0 {
				t.lastZero = min(next, from) - 1
			}
			if next < t.wt {
				c += int(t.delta[t.at(next)])
			}
			off = next
		}
	}
	t.outstanding--
	if t.outstanding < 0 {
		panic(fmt.Sprintf("lsf: more credit returns than bookings on %s", t.Name()))
	}
	t.version++
	t.emit(probe.KindVCreditGrant, -1, 0, tag*t.slotCycles)
}

// ClearBusy releases the booked slot at absolute time s after its quantum
// was forwarded (possibly early, by speculative switching). Virtual credits
// are not restored: the quantum still occupies the downstream buffer.
func (t *Table) ClearBusy(s uint64) {
	p := t.ring(s)
	w, b := bit(p)
	if t.busy[w]&b == 0 {
		panic(fmt.Sprintf("lsf: clearing idle slot %d on %s", s, t.Name()))
	}
	t.busy[w] &^= b
	t.busyCount--
	t.version++
}

// BusyAt reports the owner of the slot at absolute time s.
func (t *Table) BusyAt(s uint64) (Owner, bool) {
	p := t.ring(s)
	if w, b := bit(p); t.busy[w]&b == 0 {
		return Owner{}, false
	}
	return t.owner(p), true
}

// CreditAt returns the virtual credit of the slot at absolute time s
// (diagnostics and tests).
func (t *Table) CreditAt(s uint64) int {
	t.ring(s) // panics outside the window
	return t.creditAt(int(s - t.now))
}

// AppendCredits appends the virtual credit of every slot of the window to
// dst in window order, in one pass, and returns the extended slice.
func (t *Table) AppendCredits(dst []int) []int {
	c := t.base
	for o := 0; o < t.wt; o++ {
		c += int(t.delta[t.at(o)])
		dst = append(dst, c)
	}
	return dst
}

// FirstScheduled returns the earliest booked slot in the window, if any.
// The LOFT data router uses it to classify a forwarded quantum as in-order
// (→ non-speculative buffer) or out-of-order (→ speculative buffer).
func (t *Table) FirstScheduled() (Owner, uint64, bool) {
	if t.busyCount == 0 {
		return Owner{}, 0, false
	}
	off := t.nextSet(t.busy, 0)
	return t.owner(t.at(off)), t.now + uint64(off), true
}

// AllIdle reports whether no slot is booked (§4.3.2 reset precondition).
func (t *Table) AllIdle() bool { return t.busyCount == 0 }

// Dirty reports whether any scheduling request touched the table since the
// last reset; pristine tables need no reset.
func (t *Table) Dirty() bool { return t.dirty }

// Version returns the state-change counter. A Request denied at version v
// cannot succeed until Version() != v; schedulers use this to avoid
// busy-wait retries.
func (t *Table) Version() uint64 { return t.version }

// Outstanding returns booked-minus-returned virtual credits. A local status
// reset is only safe at zero (no returns in flight).
func (t *Table) Outstanding() int { return t.outstanding }

// Reset performs the local status reset of §4.3.2: CP, HF ← 0; for every
// flow IF ← HF and C ← R; every slot's virtual credit ← BN. The caller must
// have verified the trigger conditions (AllIdle, downstream buffer empty,
// Outstanding() == 0).
func (t *Table) Reset() {
	t.cp, t.hf = 0, 0
	t.base, t.end = t.p.BufferQuanta, t.p.BufferQuanta
	t.clearSteps()
	clear(t.busy)
	clear(t.skipped)
	for i := t.live; i >= 0; i = t.flows[i].next {
		t.flows[i].live = false
	}
	t.live = -1
	t.outstanding = 0
	t.busyCount = 0
	t.lastZero = -1
	t.dirty = false
	t.version++
	t.stats.Resets++
	t.emit(probe.KindLocalReset, -1, 0, 0)
}

// clearSteps zeroes every credit step, visiting only the breakpoints.
func (t *Table) clearSteps() {
	for w, m := range t.bp {
		for ; m != 0; m &= m - 1 {
			t.delta[w<<6+bits.TrailingZeros64(m)] = 0
		}
		t.bp[w] = 0
	}
}

// FlowState reports a flow's (IF, C, R) for tests and diagnostics.
func (t *Table) FlowState(id flit.FlowID) (ifr, c, r int, ok bool) {
	st := t.flow(id)
	if st == nil {
		return 0, 0, 0, false
	}
	ifr, c = t.state(st)
	return ifr, c, int(st.r), true
}

// Skipped returns skipped(f) for tests and diagnostics.
func (t *Table) Skipped(f int) int { return int(t.skipped[f]) }

// WindowSlots returns WT.
func (t *Table) WindowSlots() int { return t.wt }

// BookedSlots returns the number of busy slots in the window (reservation
// table fill; exported for the probe layer's gauges).
func (t *Table) BookedSlots() int { return t.busyCount }

// Occupancy returns the booked fraction of the live reservation window in
// [0,1] — the table-fill figure the probe gauges and the perfmon
// queue-occupancy gauges both report.
func (t *Table) Occupancy() float64 { return float64(t.busyCount) / float64(t.wt) }

// VerifyZero checks the table's representation against a full scan and
// panics on any divergence (test/debug hook): delta[cp] is zero, a
// breakpoint bit is set exactly where a step is not zero, the steps sum from
// base to end (and end is BN minus the outstanding quanta in strict mode),
// lastZero is the last zero-credit offset, and the live list links exactly
// the live flows. FaultLeakCredit breaks the last two credit facts on
// purpose, so they are not checked under it.
func (t *Table) VerifyZero() {
	fail := func(format string, args ...any) {
		panic(fmt.Sprintf("lsf: %s on %s (outstanding=%d)", fmt.Sprintf(format, args...), t.Name(), t.outstanding))
	}
	if t.delta[t.cp] != 0 {
		fail("step %d at the current slot", t.delta[t.cp])
	}
	sum := t.base
	for p, d := range t.delta {
		if w, b := bit(p); (d != 0) != (t.bp[w]&b != 0) {
			fail("step %d at ring index %d, breakpoint bit %v", d, p, t.bp[w]&b != 0)
		}
		sum += int(d)
	}
	if sum != t.end {
		fail("steps sum from base %d to %d, end %d", t.base, sum, t.end)
	}
	if t.fault != FaultLeakCredit {
		if t.p.Strict && t.end != t.p.BufferQuanta-t.outstanding {
			fail("end credit %d != BN %d - outstanding", t.end, t.p.BufferQuanta)
		}
		want := -1
		for o, c := range t.AppendCredits(make([]int, 0, t.wt)) {
			if c <= 0 {
				want = o
			}
		}
		if want != t.lastZero {
			fail("lastZero=%d, scan says %d", t.lastZero, want)
		}
	}
	linked := 0
	for i := t.live; i >= 0; i = t.flows[i].next {
		if linked++; !t.flows[i].live || linked > len(t.flows) {
			fail("live list reaches flow %d (live %v) after %d links", i, t.flows[i].live, linked)
		}
	}
	for i := range t.flows {
		if t.flows[i].live {
			linked--
		}
	}
	if linked != 0 {
		fail("live list and live flows differ by %d", linked)
	}
}
