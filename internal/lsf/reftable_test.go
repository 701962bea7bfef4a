package lsf

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"loft/internal/flit"
	"loft/internal/probe"
)

// refTable is the executable specification the Table is held to: a
// deliberately plain transcription of the LSF output scheduler — Algorithms
// 1–3, the skipped(i) counters, the constructive Theorem I check, the yield
// condition and the local status reset — that shares none of the Table's
// storage decisions. The ring is one struct per slot, every search is a
// linear scan in window order, and a slot's virtual credit is recomputed on
// every read from the booking/return ledger in absolute slot time (appendix
// eq. 3):
//
//	credit(s) = BN − #{bookings ≤ s} + #{returns ≤ s} + fix(s)
//
// fix(s) collects the non-strict clamps applied at s, and is carried forward
// when s+1 is recycled as the new farthest slot: the recycled slot inherits
// the previous farthest slot's credit, clamps included.
//
// The safety threshold — book only strictly after the last zero-credit slot
// — is modelled as marks on the slots seen at zero credit. A booking marks
// every slot of its suffix it leaves at zero, a recycled slot is marked when
// it inherits zero, and a credit return whose tag lies at or before a mark
// clears the marks and re-reads the credits below its tag. Without a fault
// the last mark is exactly the last zero-credit slot, and the reference
// checks that about itself. FaultLeakCredit counts a return without crediting
// any slot, so the marks (and the Table's lastZero) fall below a slot still
// at zero: that desynchronisation is part of the fault, and the reason a
// booking still tests each candidate slot's credit.
//
// With YieldCondition on, condition (1) never blocked in any network run
// tried (uniform 0.3 and 0.6 and Case Study I, at WF 2 and 3, all read
// CondBlocks = 0), so the stored-digest goldens cannot pin conditionOne: this
// lock-step comparison is the only test that does.
type refTable struct {
	p     Params
	fault Fault
	wt    int
	cp    int    // ring index of the current slot
	now   uint64 // absolute time of the current slot
	slots []refSlot

	// The credit ledger and the zero marks, all in absolute slot time: fix
	// and zero are indexed by it and cover [0, now+WT).
	bookings, returns []uint64
	fix               []int
	zero              []bool

	skipped     []int
	flows       []*refFlow // registration order
	sumR        int
	outstanding int
	dirty       bool
	version     uint64
	stats       Stats

	log    []string // probe records, in emission order
	broken error    // a self-check of the reference failed
}

type refSlot struct {
	busy  bool
	owner Owner
}

type refFlow struct {
	id        flit.FlowID
	r, ifr, c int
	lastReq   uint64
	active    bool
}

// The probe context both tables are given.
const refNode, refLink, refSlotCycles = 3, 5, 2

func newRefTable(p Params, f Fault) *refTable {
	wt := p.SlotsPerFrame * p.Frames
	return &refTable{p: p, fault: f, wt: wt, slots: make([]refSlot, wt),
		fix: make([]int, wt), zero: make([]bool, wt), skipped: make([]int, p.Frames)}
}

func (r *refTable) hf() int      { return r.cp / r.p.SlotsPerFrame }
func (r *refTable) last() uint64 { return r.now + uint64(r.wt) - 1 }

// credits returns the credit of every live slot in window order, straight
// from the ledger.
func (r *refTable) credits() []int {
	d := make([]int, r.wt)
	add := func(s uint64, v int) {
		if s <= r.now {
			d[0] += v
		} else if s <= r.last() {
			d[s-r.now] += v
		}
	}
	for _, b := range r.bookings {
		add(b, -1)
	}
	for _, t := range r.returns {
		add(t, +1)
	}
	cs := make([]int, r.wt)
	run := r.p.BufferQuanta
	for o := range cs {
		run += d[o]
		cs[o] = run + r.fix[r.now+uint64(o)]
	}
	return cs
}

func (r *refTable) flow(id flit.FlowID) *refFlow {
	for _, fl := range r.flows {
		if fl.id == id {
			return fl
		}
	}
	return nil
}

func (r *refTable) emit(k probe.Kind, flow int32, seq, arg uint64) {
	r.log = append(r.log, recordEntry(probe.Record{Event: probe.Event{Cycle: r.now * refSlotCycles, Kind: k, Node: refNode, Loc: refLink, Flow: flow, Seq: seq, Arg: arg}}))
}

func (r *refTable) addFlow(id flit.FlowID, res int) error {
	switch {
	case res < 1:
		return errors.New("reservation below one quantum")
	case id < 0:
		return errors.New("negative flow id")
	case r.flow(id) != nil:
		return errors.New("registered twice")
	case r.sumR+res > r.p.SlotsPerFrame:
		return errors.New("ΣR exceeds the frame")
	}
	r.sumR += res
	r.flows = append(r.flows, &refFlow{id: id, r: res, ifr: r.hf(), c: res})
	return nil
}

// safe returns the first window offset a booking may use: one past the last
// marked slot.
func (r *refTable) safe() int {
	last := -1
	for o := 0; o < r.wt; o++ {
		if r.zero[r.now+uint64(o)] {
			last = o
		}
	}
	return last + 1
}

// yields is the buffer-yield reading of condition (1): a flow may book into
// a frame beyond the head frame only while the window-end credit exceeds the
// unspent reservations of the other recently-active flows injecting into
// earlier frames.
func (r *refTable) yields(self *refFlow) bool {
	if !r.p.Yield || self.ifr == r.hf() {
		return true
	}
	F, WF := r.p.SlotsPerFrame, r.p.Frames
	rank := (self.ifr - r.hf() + WF) % WF
	headStart := r.now - uint64(r.cp%F)
	ahead := 0
	for _, fl := range r.flows {
		if fl == self || !fl.active || fl.lastReq+uint64(F) < headStart {
			continue
		}
		if (fl.ifr-r.hf()+WF)%WF < rank {
			ahead += fl.c
		}
	}
	cs := r.credits()
	return cs[r.wt-1] > ahead
}

// request is Algorithm 1.
func (r *refTable) request(id flit.FlowID, q, minSlot uint64) (uint64, bool) {
	fl := r.flow(id)
	if fl == nil {
		panic("request from an unregistered flow")
	}
	r.stats.Requests++
	r.dirty = true
	fl.lastReq, fl.active = r.now, true
	if minSlot <= r.now {
		minSlot = r.now + 1
	}
	safe := r.safe()
	for {
		if fl.c > 0 {
			if r.yields(fl) {
				if s, ok := r.book(fl, q, minSlot, safe); ok {
					fl.c--
					r.stats.Scheduled++
					r.emit(probe.KindReserveGrant, int32(id), q, s*refSlotCycles)
					return s, true
				}
			} else {
				r.stats.CondBlocks++
				r.emit(probe.KindCondBlock, int32(id), q, uint64(fl.ifr))
			}
		}
		next := (fl.ifr + 1) % r.p.Frames
		if next == r.hf() {
			r.stats.Throttled++
			r.emit(probe.KindReserveDeny, int32(id), q, q)
			return 0, false
		}
		if r.fault != FaultDropSkipped {
			r.skipped[fl.ifr] += fl.c
		}
		r.emit(probe.KindFrameSkip, int32(id), q, uint64(fl.c))
		fl.c = min(fl.r, fl.c+fl.r)
		fl.ifr = next
		r.stats.FrameSkips++
	}
}

// book is Algorithm 2 with the constructive Theorem I check: the first slot
// of the flow's injection frame, in window order, that is not the current
// slot, lies at or after minSlot and the safety threshold, is free and has
// positive credit. Head-frame slots behind CP belong to the next lap of the
// ring and are not part of the head frame.
func (r *refTable) book(fl *refFlow, q, minSlot uint64, safe int) (uint64, bool) {
	cs := r.credits()
	for o := 1; o < r.wt; o++ {
		p := (r.cp + o) % r.wt
		s := r.now + uint64(o)
		if p/r.p.SlotsPerFrame != fl.ifr || (fl.ifr == r.hf() && p < r.cp) {
			continue
		}
		if o < safe || s < minSlot || r.slots[p].busy || cs[o] <= 0 {
			continue
		}
		r.slots[p] = refSlot{busy: true, owner: Owner{Flow: fl.id, Quantum: q}}
		r.bookings = append(r.bookings, s)
		cs = r.credits()
		for u := o; u < r.wt; u++ {
			t := r.now + uint64(u)
			if cs[u] < 0 {
				if r.p.Strict {
					panic("negative virtual credit")
				}
				r.fix[t]++
				cs[u]++
				r.stats.CreditClamps++
			}
			if cs[u] == 0 {
				r.zero[t] = true
			}
		}
		r.outstanding++
		return s, true
	}
	return 0, false
}

// tick is Algorithm 3.
func (r *refTable) tick() {
	r.version++
	inherited := r.credits()[r.wt-1]
	r.slots[r.cp] = refSlot{}
	r.cp = (r.cp + 1) % r.wt
	r.now++
	r.fix = append(r.fix, r.fix[r.last()-1])
	r.zero = append(r.zero, false)
	if got := r.credits()[r.wt-1]; got != inherited && r.broken == nil {
		r.broken = fmt.Errorf("reference: recycled slot reads %d, inherited %d", got, inherited)
	}
	if inherited == 0 {
		r.zero[r.last()] = true
	}
	if r.cp%r.p.SlotsPerFrame == 0 {
		old := (r.hf() - 1 + r.p.Frames) % r.p.Frames
		for _, fl := range r.flows {
			if fl.ifr == old {
				fl.ifr = (old + 1) % r.p.Frames
				fl.c = min(fl.r, fl.c+fl.r)
			}
		}
		r.skipped[old] = 0
		r.emit(probe.KindFrameRecycle, -1, 0, uint64(r.hf()))
	}
}

func (r *refTable) returnCredit(tag uint64) {
	from := 0
	if tag > r.now {
		if tag > r.last() {
			panic("credit return beyond the window")
		}
		from = int(tag - r.now)
	}
	if r.fault != FaultLeakCredit {
		r.returns = append(r.returns, tag)
		cs := r.credits()
		for o := from; o < r.wt; o++ {
			if cs[o] > r.p.BufferQuanta {
				if r.p.Strict {
					panic("virtual credit above capacity")
				}
				r.fix[r.now+uint64(o)]--
				r.stats.CreditClamps++
			}
		}
	}
	if r.safe() > from {
		clear(r.zero)
		cs := r.credits()
		for o := from - 1; o >= 0; o-- {
			if cs[o] == 0 {
				r.zero[r.now+uint64(o)] = true
				break
			}
		}
	}
	r.outstanding--
	if r.outstanding < 0 {
		panic("more credit returns than bookings")
	}
	r.version++
	r.emit(probe.KindVCreditGrant, -1, 0, tag*refSlotCycles)
}

func (r *refTable) clearBusy(s uint64) {
	if s < r.now || s > r.last() {
		panic("slot outside the window")
	}
	p := (r.cp + int(s-r.now)) % r.wt
	if !r.slots[p].busy {
		panic("clearing an idle slot")
	}
	r.slots[p] = refSlot{}
	r.version++
}

func (r *refTable) reset() {
	r.cp = 0
	clear(r.slots)
	r.bookings, r.returns = nil, nil
	clear(r.fix)
	clear(r.zero)
	clear(r.skipped)
	for _, fl := range r.flows {
		fl.ifr, fl.c = 0, fl.r
	}
	r.outstanding = 0
	r.dirty = false
	r.version++
	r.stats.Resets++
	r.emit(probe.KindLocalReset, -1, 0, 0)
}

func (r *refTable) firstScheduled() (Owner, uint64, bool) {
	for o := 0; o < r.wt; o++ {
		if sl := r.slots[(r.cp+o)%r.wt]; sl.busy {
			return sl.owner, r.now + uint64(o), true
		}
	}
	return Owner{}, 0, false
}

// busySlots lists the booked slots' absolute times in window order.
func (r *refTable) busySlots() []uint64 {
	var out []uint64
	for o := 0; o < r.wt; o++ {
		if r.slots[(r.cp+o)%r.wt].busy {
			out = append(out, r.now+uint64(o))
		}
	}
	return out
}

// selfCheck is the reference's own consistency: without FaultLeakCredit the
// last zero mark is the last zero-credit slot.
func (r *refTable) selfCheck() error {
	if r.broken != nil || r.fault == FaultLeakCredit {
		return r.broken
	}
	want := 0
	for o, c := range r.credits() {
		if c <= 0 {
			want = o + 1
		}
	}
	if got := r.safe(); got != want {
		return fmt.Errorf("reference: last zero mark at offset %d, last zero credit at %d", got-1, want-1)
	}
	return nil
}

// diff compares every observable of tb with the reference.
func (r *refTable) diff(tb *Table, ids []flit.FlowID) error {
	cs := r.credits()
	for o := 0; o < r.wt; o++ {
		s := r.now + uint64(o)
		if got := tb.CreditAt(s); got != cs[o] {
			return fmt.Errorf("CreditAt(%d) = %d, reference %d", s, got, cs[o])
		}
		owner, busy := tb.BusyAt(s)
		if sl := r.slots[(r.cp+o)%r.wt]; busy != sl.busy || owner != sl.owner {
			return fmt.Errorf("BusyAt(%d) = %+v,%v, reference %+v,%v", s, owner, busy, sl.owner, sl.busy)
		}
	}
	o1, s1, ok1 := tb.FirstScheduled()
	o2, s2, ok2 := r.firstScheduled()
	if o1 != o2 || s1 != s2 || ok1 != ok2 {
		return fmt.Errorf("FirstScheduled() = %+v@%d,%v, reference %+v@%d,%v", o1, s1, ok1, o2, s2, ok2)
	}
	busy := len(r.busySlots())
	switch {
	case tb.EndCredit() != cs[r.wt-1]:
		return fmt.Errorf("EndCredit() = %d, reference %d", tb.EndCredit(), cs[r.wt-1])
	case tb.Outstanding() != r.outstanding:
		return fmt.Errorf("Outstanding() = %d, reference %d", tb.Outstanding(), r.outstanding)
	case tb.Stats() != r.stats:
		return fmt.Errorf("Stats() = %+v, reference %+v", tb.Stats(), r.stats)
	case tb.NowSlot() != r.now || tb.HeadFrame() != r.hf():
		return fmt.Errorf("NowSlot, HeadFrame = %d,%d, reference %d,%d", tb.NowSlot(), tb.HeadFrame(), r.now, r.hf())
	case tb.BookedSlots() != busy || tb.AllIdle() != (busy == 0):
		return fmt.Errorf("BookedSlots() = %d, reference %d", tb.BookedSlots(), busy)
	case tb.Dirty() != r.dirty:
		return fmt.Errorf("Dirty() = %v, reference %v", tb.Dirty(), r.dirty)
	}
	if msg := recovered(tb.VerifyZero); msg != nil {
		return fmt.Errorf("VerifyZero: %v", msg)
	}
	for f := 0; f < r.p.Frames; f++ {
		if tb.Skipped(f) != r.skipped[f] {
			return fmt.Errorf("Skipped(%d) = %d, reference %d", f, tb.Skipped(f), r.skipped[f])
		}
	}
	for _, id := range append([]flit.FlowID{-1, 1 << 12}, ids...) {
		ifr, c, res, ok := tb.FlowState(id)
		var want refFlow
		fl := r.flow(id)
		if fl != nil {
			want = *fl
		}
		if ok != (fl != nil) || ifr != want.ifr || c != want.c || res != want.r || tb.HasFlow(id) != ok || tb.Reservation(id) != res {
			return fmt.Errorf("FlowState(%d) = IF %d C %d R %d ok %v, reference IF %d C %d R %d ok %v", id, ifr, c, res, ok, want.ifr, want.c, want.r, fl != nil)
		}
	}
	return r.selfCheck()
}

func recordEntry(rec probe.Record) string {
	return fmt.Sprint("probe ", rec.Cycle, rec.Kind, rec.Node, rec.Loc, rec.Flow, rec.Seq, rec.Arg, rec.Aux)
}

// lockStepShapes are the table shapes the lock-step comparison runs:
// WT = 12, 150 and 256 at WF = 2 (150 puts the frame edge at ring index 75,
// inside the second 64-slot word), plus WF = 4 and WF = 3 shapes for the
// yield ranks and multi-frame advances (66 = 3×22 puts a frame edge on each
// side of a word boundary).
var lockStepShapes = []struct{ F, WF int }{{6, 2}, {75, 2}, {128, 2}, {4, 4}, {22, 3}}

// lockStepFlows is the flow-id universe, sparse so the flow index grows
// past holes.
var lockStepFlows = []flit.FlowID{0, 3, 7, 12, 40}

// lockStepConfig decodes a configuration byte: shape, strict or clamping,
// yield on or off, the armed Fault, and whether BN exceeds F. Bits 5–6 pick
// the Fault; their fourth value arms none and sets BN = 4·F instead, where
// credits stay far above zero for long stretches and a window holds few
// breakpoints.
func lockStepConfig(cfg uint8) (Params, Fault, string) {
	sh := lockStepShapes[int(cfg&7)%len(lockStepShapes)]
	p := Params{SlotsPerFrame: sh.F, Frames: sh.WF, BufferQuanta: sh.F, Strict: cfg&8 != 0, Yield: cfg&16 != 0}
	if cfg>>5&3 == 3 {
		p.BufferQuanta = 4 * sh.F
	}
	if cfg&128 != 0 {
		p.BufferQuanta += 2
	}
	f := Fault((cfg >> 5 & 3) % 3)
	return p, f, fmt.Sprintf("F%dxWF%d/BN%d/strict=%v/yield=%v/fault=%d", p.SlotsPerFrame, p.Frames, p.BufferQuanta, p.Strict, p.Yield, f)
}

// tableOp is one step of a lock-step run; tableOps generates runs for
// testing/quick up to six times its default slice length.
type tableOp struct{ Kind, A, B uint8 }

type tableOps []tableOp

func (tableOps) Generate(rnd *rand.Rand, size int) reflect.Value {
	ops := make(tableOps, rnd.Intn(6*size+1))
	for i := range ops {
		ops[i] = tableOp{uint8(rnd.Intn(256)), uint8(rnd.Intn(256)), uint8(rnd.Intn(256))}
	}
	return reflect.ValueOf(ops)
}

func decodeOps(b []byte) []tableOp {
	ops := make([]tableOp, len(b)/3)
	for i := range ops {
		ops[i] = tableOp{b[3*i], b[3*i+1], b[3*i+2]}
	}
	return ops
}

func encodeOps(ops []tableOp) []byte {
	var b []byte
	for _, op := range ops {
		b = append(b, op.Kind, op.A, op.B)
	}
	return b
}

// panics runs f and reports whether it panicked.
func panics(f func()) bool { return recovered(f) != nil }

// recovered runs f and returns the value it panicked with, nil if none.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// lockStep drives a Table and the reference through the same operations —
// AddFlow, Request, Tick, Advance, ReturnCredit, ClearBusy and Reset, plus
// the misuses that must panic — and returns the first divergence: in an
// operation's results, in whether it panicked, in whether Version() moved,
// in the probe records it emitted (when sinks attaches a stage to the
// Table as its emitter), or in any observable afterwards. A run ends at the
// first operation both sides panic on. Without sinks the Table's Advance
// takes its arithmetic path whenever no slot is busy.
func lockStep(cfg uint8, sinks bool, ops []tableOp) error {
	p, fault, _ := lockStepConfig(cfg)
	tb := NewTable("lockstep", p)
	tb.InjectFault(fault)
	tb.SetStamp(refNode, refLink, refSlotCycles)
	stage := probe.NewStage(probe.TracedKinds)
	if sinks {
		tb.SetEmitter(&stage, Kinds)
	}
	var log []string // the records the Table emitted in one operation
	ref := newRefTable(p, fault)
	F, wt := p.SlotsPerFrame, ref.wt

	var inflight []uint64 // booked slots not yet credit-returned, FIFO
	var q uint64          // next quantum sequence number
	step := 0
	// do applies one operation to both sides and compares.
	do := func(name string, onTable, onRef func() any) error {
		step++
		v, rv := tb.Version(), ref.version
		var got, want any
		pt := panics(func() { got = onTable() })
		pr := panics(func() { want = onRef() })
		for _, rec := range stage.Drain() {
			log = append(log, recordEntry(rec))
		}
		switch {
		case pt != pr:
			return fmt.Errorf("step %d %s: table panicked %v, reference %v", step, name, pt, pr)
		case pt:
			return errStop
		case !reflect.DeepEqual(got, want):
			return fmt.Errorf("step %d %s: table returned %v, reference %v", step, name, got, want)
		case (tb.Version() != v) != (ref.version != rv):
			return fmt.Errorf("step %d %s: Version() moved %v, reference %v", step, name, tb.Version() != v, ref.version != rv)
		case sinks && !slices.Equal(log, ref.log):
			return fmt.Errorf("step %d %s: emitted\n\t%q\nreference\n\t%q", step, name, log, ref.log)
		}
		log, ref.log = log[:0], ref.log[:0]
		if err := ref.diff(tb, lockStepFlows); err != nil {
			return fmt.Errorf("step %d %s: %w", step, name, err)
		}
		return nil
	}
	addFlow := func(id flit.FlowID, r int) error {
		return do(fmt.Sprintf("AddFlow(%d, %d)", id, r),
			func() any { return tb.AddFlow(id, r) == nil },
			func() any { return ref.addFlow(id, r) == nil })
	}
	request := func(id flit.FlowID, minSlot uint64) error {
		qq := q
		q++
		var slot uint64
		var ok bool
		err := do(fmt.Sprintf("Request(%d, %d, %d)", id, qq, minSlot),
			func() any { s, booked := tb.Request(id, qq, minSlot); return [2]any{s, booked} },
			func() any { slot, ok = ref.request(id, qq, minSlot); return [2]any{slot, ok} })
		if err == nil && ok {
			inflight = append(inflight, slot)
		}
		return err
	}
	tick := func() error {
		return do("Tick()", func() any { tb.Tick(); return nil }, func() any { ref.tick(); return nil })
	}
	advance := func(k uint64) error {
		return do(fmt.Sprintf("Advance(%d)", k), func() any { tb.Advance(k); return nil }, func() any {
			for i := uint64(0); i < k; i++ {
				ref.tick()
			}
			return nil
		})
	}
	returnCredit := func(tag uint64) error {
		if len(inflight) > 0 {
			inflight = inflight[1:]
		}
		return do(fmt.Sprintf("ReturnCredit(%d)", tag),
			func() any { tb.ReturnCredit(tag); return nil },
			func() any { ref.returnCredit(tag); return nil })
	}
	clearBusy := func(s uint64) error {
		return do(fmt.Sprintf("ClearBusy(%d)", s),
			func() any { tb.ClearBusy(s); return nil },
			func() any { ref.clearBusy(s); return nil })
	}
	reset := func() error {
		inflight = inflight[:0]
		return do("Reset()", func() any { tb.Reset(); return nil }, func() any { ref.reset(); return nil })
	}

	// Three flows contend from the start; AddFlow ops register more.
	start := []struct {
		id flit.FlowID
		r  int
	}{{0, max(1, F/4)}, {3, max(1, F/4)}, {12, 1}}
	for _, fl := range start {
		if err := addFlow(fl.id, fl.r); err != nil {
			return err
		}
	}
	var err error
	for _, op := range ops {
		switch k := op.Kind % 16; {
		case k < 6: // a burst of one to four requests from one registered flow
			fl := ref.flows[int(op.A)%len(ref.flows)]
			for i := 0; i <= int(op.A>>6) && err == nil; i++ {
				minSlot := ref.now + uint64(int(op.B)%(wt/2+2))
				err = request(fl.id, minSlot)
			}
		case k < 9 && op.A%4 == 0: // a long gap: up to 3·WT slots at once
			err = advance((uint64(op.A)<<6 | uint64(op.B)) % uint64(3*wt+1))
		case k < 9: // time passes
			for i := 0; i <= int(op.B)%max(2, wt/6) && err == nil; i++ {
				err = tick()
			}
		case k < 12: // a downstream credit return
			if ref.outstanding == 0 {
				continue
			}
			tag := ref.now + uint64(op.B)%uint64(wt) // anywhere in the window
			switch {
			case op.A%8 < 6 && len(inflight) > 0: // the onward booking of an in-flight quantum
				tag = min(inflight[0]+1+uint64(op.B%4), ref.last())
			case op.A%8 == 6: // tagged at or before the current slot
				tag = ref.now - min(ref.now, uint64(op.B%3))
			}
			err = returnCredit(tag)
		case k < 14: // a booked quantum leaves
			if busy := ref.busySlots(); len(busy) > 0 {
				err = clearBusy(busy[int(op.B)%len(busy)])
			}
		case k == 14:
			err = addFlow(lockStepFlows[int(op.A)%len(lockStepFlows)], int(op.B)%(F/2+2))
		default: // rare: a reset, or a misuse that ends the run
			switch op.A % 64 {
			case 0, 1, 2, 3, 4, 5, 6, 7:
				err = reset()
			case 8: // a request from a flow that was never registered
				err = request(99, 0)
			case 9: // clearing an idle slot or one outside the window
				err = clearBusy(ref.now + uint64(op.B)%uint64(wt+2))
			case 10: // a credit return tagged beyond the window
				err = returnCredit(ref.now + uint64(wt) + uint64(op.B%3))
			case 11: // once nothing is outstanding, an over-return
				err = returnCredit(ref.now)
			default:
				err = addFlow(lockStepFlows[int(op.B)%len(lockStepFlows)], int(op.A)%(F+2))
			}
		}
		if err != nil {
			break
		}
	}
	if errors.Is(err, errStop) {
		return nil
	}
	return err
}

// errStop ends a lock-step run once both sides panicked on the same
// operation.
var errStop = errors.New("both panicked")

// TestLockStepReference drives the Table and refTable through random
// operation sequences for every shape, in strict and clamping mode, with the
// yield condition on and off, under each Fault at BN = F and BN = F+2, and
// unfaulted at BN = 4·F and 4·F+2; each with a probe stage attached as the
// Table's emitter and without one (four runs each: quick.Check draws new runs
// every time the test runs).
func TestLockStepReference(t *testing.T) {
	for cfg := 0; cfg < 256; cfg++ {
		if cfg&7 >= len(lockStepShapes) {
			continue // duplicate encodings
		}
		_, _, name := lockStepConfig(uint8(cfg))
		t.Run(name, func(t *testing.T) {
			for _, sinks := range []bool{true, false} {
				t.Run(fmt.Sprintf("sinks=%v", sinks), func(t *testing.T) {
					check := func(ops tableOps) bool {
						if err := lockStep(uint8(cfg), sinks, ops); err != nil {
							t.Log(err)
							return false
						}
						return true
					}
					if err := quick.Check(check, &quick.Config{MaxCount: 4}); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}

// longGapOps is a run that leaves a table idle with live flows and then lets
// long gaps pass: flows 0 and 3 book, their quanta leave and their credits
// return, so every slot is free again while both flows are still live, and
// Advance ops of 0 to 3·WT slots follow, with a request between each pair
// so the flows keep changing frames. ClearBusy and ReturnCredit pick their
// targets from the reference's state, so the run holds for every shape.
func longGapOps(rnd *rand.Rand) tableOps {
	var ops tableOps
	gap := func() tableOp { return tableOp{6, uint8(rnd.Intn(64)) * 4, uint8(rnd.Intn(256))} }
	for i := 0; i < 4; i++ {
		ops = append(ops,
			tableOp{0, uint8(rnd.Intn(2)) * 66, uint8(rnd.Intn(8))},   // flow 0 requests once or twice
			tableOp{1, 1 + uint8(rnd.Intn(2))*66, uint8(rnd.Intn(8))}, // flow 3 requests once or twice
			gap(), gap(),
			tableOp{12, 0, 0}, tableOp{12, 0, 0}, tableOp{12, 0, 0}, // booked quanta leave
			tableOp{9, 0, uint8(rnd.Intn(4))}, tableOp{9, 0, 0}, tableOp{9, 0, 0}, // onward credits return
			gap(), gap(), gap(),
		)
		if rnd.Intn(3) == 0 {
			ops = append(ops, tableOp{15, uint8(rnd.Intn(8)), 0}) // a reset
		}
	}
	return ops
}

// FuzzTableOps runs the lock-step body on arbitrary bytes: the first is the
// configuration (lockStepConfig), the second's low bit attaches the stage,
// every following three an operation. The seed corpus holds, per
// quick-check configuration, one generated run and one long-gap run
// (longGapOps), one with the stage and one without, alternating.
func FuzzTableOps(f *testing.F) {
	rnd := rand.New(rand.NewSource(1))
	for cfg := 0; cfg < 256; cfg++ {
		if cfg&7 >= len(lockStepShapes) {
			continue
		}
		sinks := byte(cfg>>3) & 1
		ops := tableOps{}.Generate(rnd, 40).Interface().(tableOps)
		f.Add(append([]byte{byte(cfg), sinks}, encodeOps(ops)...))
		f.Add(append([]byte{byte(cfg), sinks ^ 1}, encodeOps(longGapOps(rnd))...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if err := lockStep(data[0], data[1]&1 != 0, decodeOps(data[2:])); err != nil {
			t.Fatal(err)
		}
	})
}
