package lsf

import (
	"math"
	"testing"
	"testing/quick"

	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/probe"
)

func newTestTable(t *testing.T, f, wf, bn int) *Table {
	t.Helper()
	return NewTable("test", Params{SlotsPerFrame: f, Frames: wf, BufferQuanta: bn, Strict: true})
}

func newYieldTable(t *testing.T, f, wf, bn int) *Table {
	t.Helper()
	return NewTable("yield", Params{SlotsPerFrame: f, Frames: wf, BufferQuanta: bn, Strict: true, Yield: true})
}

func TestParamsValidate(t *testing.T) {
	maxCredit := math.MaxInt32 // a variable, so maxCredit+1 is no constant overflow where int is 32 bits
	cases := []struct {
		name string
		p    Params
		ok   bool
	}{
		{"paper", Params{SlotsPerFrame: 128, Frames: 2, BufferQuanta: 128}, true},
		{"zero frame", Params{SlotsPerFrame: 0, Frames: 2, BufferQuanta: 4}, false},
		{"window 1", Params{SlotsPerFrame: 4, Frames: 1, BufferQuanta: 4}, false},
		{"small buffer", Params{SlotsPerFrame: 8, Frames: 2, BufferQuanta: 7}, false},
		{"buffer equals frame", Params{SlotsPerFrame: 8, Frames: 2, BufferQuanta: 8}, true},
		{"buffer fills int32", Params{SlotsPerFrame: 8, Frames: 2, BufferQuanta: maxCredit}, true},
		{"buffer overflows int32", Params{SlotsPerFrame: 8, Frames: 2, BufferQuanta: maxCredit + 1}, false},
	}
	for _, c := range cases {
		if err := c.p.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestNewTableInitialState(t *testing.T) {
	tb := newTestTable(t, 4, 4, 4)
	if tb.WindowSlots() != 16 {
		t.Fatalf("WT = %d, want 16", tb.WindowSlots())
	}
	if tb.HeadFrame() != 0 {
		t.Fatalf("head frame = %d, want 0", tb.HeadFrame())
	}
	for s := uint64(0); s < 16; s++ {
		if got := tb.CreditAt(s); got != 4 {
			t.Fatalf("initial credit at %d = %d, want 4", s, got)
		}
		if _, busy := tb.BusyAt(s); busy {
			t.Fatalf("slot %d busy at init", s)
		}
	}
}

var (
	allocSink []Table
	oneSink   *Table
)

// TestNewTableAllocs pins the table storage: NewTables makes the table
// array, one int32 array (credit steps, skipped counters, id indexes), one
// uint64 array (busy, breakpoint and owner words) and one flow-state array,
// however many tables and flows, and registering the flows the specs promise
// allocates nothing. NewTable is the one-spec case, without flow state.
func TestNewTableAllocs(t *testing.T) {
	p := Params{SlotsPerFrame: 128, Frames: 2, BufferQuanta: 128}
	if n := testing.AllocsPerRun(20, func() { oneSink = NewTable("allocs", p) }); n > 3 {
		t.Errorf("NewTable: %.0f allocations, want at most 3", n)
	}
	const flows = 64
	specs := make([]Spec, 6)
	for i := range specs {
		specs[i] = Spec{Name: label.Fixed("allocs"), Flows: flows, IDs: flows}
	}
	n := testing.AllocsPerRun(20, func() {
		allocSink = NewTables(p, specs)
		for i := range allocSink {
			for id := 0; id < flows; id++ {
				if err := allocSink[i].AddFlow(flit.FlowID(id), 1); err != nil {
					panic(err)
				}
			}
		}
	})
	if n > 4 {
		t.Errorf("NewTables(%d tables) + %d AddFlow each: %.0f allocations, want at most 4", len(specs), flows, n)
	}
}

// TestNewTablesKeepApart fills every table of one NewTables call to and past
// its spec: the carved storage must not leak between neighbours, and a table
// that outgrows its flow spec must still register and read its flows.
func TestNewTablesKeepApart(t *testing.T) {
	p := Params{SlotsPerFrame: 8, Frames: 2, BufferQuanta: 8, Strict: true}
	ts := NewTables(p, []Spec{{Name: label.Fixed("a"), Flows: 2, IDs: 2}, {Name: label.Fixed("b"), Flows: 1, IDs: 1}, {Name: label.Fixed("c")}})
	for i := range ts {
		for id := 0; id < 4; id++ {
			if err := ts[i].AddFlow(flit.FlowID(id), i%2+1); err != nil {
				t.Fatalf("%s: AddFlow(%d): %v", ts[i].Name(), id, err)
			}
		}
		if _, ok := ts[i].Request(flit.FlowID(i), 0, 0); !ok {
			t.Fatalf("%s: first request throttled", ts[i].Name())
		}
	}
	for i := range ts {
		for id := 0; id < 4; id++ {
			if r := ts[i].Reservation(flit.FlowID(id)); r != i%2+1 {
				t.Errorf("%s: flow %d reservation %d, want %d", ts[i].Name(), id, r, i%2+1)
			}
		}
		if ts[i].BookedSlots() != 1 {
			t.Errorf("%s: %d booked slots, want 1", ts[i].Name(), ts[i].BookedSlots())
		}
		ts[i].VerifyZero()
	}
}

func TestAddFlowAdmission(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(1, 5); err != nil {
		t.Fatalf("AddFlow(1,5): %v", err)
	}
	if err := tb.AddFlow(1, 1); err == nil {
		t.Fatal("duplicate AddFlow accepted")
	}
	if err := tb.AddFlow(2, 4); err == nil {
		t.Fatal("ΣR > F accepted")
	}
	if err := tb.AddFlow(2, 3); err != nil {
		t.Fatalf("AddFlow(2,3): %v", err)
	}
	if err := tb.AddFlow(3, 0); err == nil {
		t.Fatal("zero reservation accepted")
	}
	if tb.Reservation(1) != 5 || tb.Reservation(2) != 3 || tb.Reservation(99) != 0 {
		t.Fatal("Reservation() mismatch")
	}
}

func TestRequestBooksEarliestValidSlot(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(7, 4); err != nil {
		t.Fatal(err)
	}
	slot, ok := tb.Request(7, 0, 0)
	if !ok || slot != 1 {
		t.Fatalf("first booking = (%d,%v), want slot 1 (head-frame scan starts at CP+1)", slot, ok)
	}
	if owner, busy := tb.BusyAt(1); !busy || owner != (Owner{Flow: 7, Quantum: 0}) {
		t.Fatalf("slot 1 owner = %+v busy=%v", owner, busy)
	}
	// Cumulative credit semantics: every slot from the booking onward lost
	// one credit; slot 0 (current) is untouched.
	if tb.CreditAt(0) != 8 {
		t.Fatalf("credit at 0 = %d, want 8", tb.CreditAt(0))
	}
	for s := uint64(1); s < 16; s++ {
		if tb.CreditAt(s) != 7 {
			t.Fatalf("credit at %d = %d, want 7", s, tb.CreditAt(s))
		}
	}
	slot2, ok := tb.Request(7, 1, 0)
	if !ok || slot2 != 2 {
		t.Fatalf("second booking = (%d,%v), want slot 2", slot2, ok)
	}
}

func TestRequestHonorsMinSlot(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(1, 8); err != nil {
		t.Fatal(err)
	}
	slot, ok := tb.Request(1, 0, 5)
	if !ok || slot != 5 {
		t.Fatalf("booking with minSlot=5 = (%d,%v), want slot 5", slot, ok)
	}
}

func TestRequestSkipsBusySlots(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddFlow(2, 4); err != nil {
		t.Fatal(err)
	}
	s1, _ := tb.Request(1, 0, 0)
	s2, _ := tb.Request(2, 0, 0)
	if s1 == s2 {
		t.Fatalf("two flows booked the same slot %d", s1)
	}
	if s1 != 1 || s2 != 2 {
		t.Fatalf("bookings = %d,%d, want 1,2", s1, s2)
	}
}

func TestReservationExhaustionAdvancesFrames(t *testing.T) {
	tb := newTestTable(t, 4, 4, 4)
	if err := tb.AddFlow(1, 2); err != nil {
		t.Fatal(err)
	}
	// Two bookings use up the head-frame reservation.
	for q := uint64(0); q < 2; q++ {
		if _, ok := tb.Request(1, q, 0); !ok {
			t.Fatalf("booking %d failed", q)
		}
	}
	ifr, c, _, _ := tb.FlowState(1)
	if ifr != 0 || c != 0 {
		t.Fatalf("state after head-frame exhaustion: IF=%d C=%d, want 0,0", ifr, c)
	}
	// With no other active flow to yield to, the third quantum advances
	// into frame 1 and books there.
	slot, ok := tb.Request(1, 2, 0)
	if !ok {
		t.Fatal("third booking throttled unexpectedly")
	}
	if slot < 4 {
		t.Fatalf("third booking at slot %d, want a later frame (>=4)", slot)
	}
	if gotIF, _, _, _ := tb.FlowState(1); gotIF != 1 {
		t.Fatalf("IF = %d after frame advance, want 1", gotIF)
	}
}

func TestThrottleWhenWindowExhausted(t *testing.T) {
	tb := newTestTable(t, 4, 2, 4)
	if err := tb.AddFlow(1, 2); err != nil {
		t.Fatal(err)
	}
	booked := 0
	for q := uint64(0); q < 10; q++ {
		slot, ok := tb.Request(1, q, 0)
		if !ok {
			break
		}
		booked++
		// Prompt downstream: forward and return the credit immediately so
		// condition (1) never interferes with the reservation accounting.
		tb.ClearBusy(slot)
		tb.ReturnCredit(slot + 1)
	}
	// WF=2 frames × R=2 quanta = at most 4 bookings before throttling.
	if booked != 4 {
		t.Fatalf("booked %d quanta before throttle, want 4", booked)
	}
	if _, ok := tb.Request(1, 99, 0); ok {
		t.Fatal("request succeeded while window exhausted")
	}
	if tb.Stats().Throttled == 0 {
		t.Fatal("throttle not counted")
	}
}

func TestTickAdvancesHeadFrameAndReplenishes(t *testing.T) {
	tb := newTestTable(t, 4, 2, 4)
	if err := tb.AddFlow(1, 2); err != nil {
		t.Fatal(err)
	}
	for q := uint64(0); q < 4; q++ {
		slot, ok := tb.Request(1, q, 0)
		if !ok {
			t.Fatalf("booking %d failed", q)
		}
		tb.ClearBusy(slot)
		tb.ReturnCredit(slot + 1)
	}
	if _, ok := tb.Request(1, 4, 0); ok {
		t.Fatal("expected throttle before frame advance")
	}
	// Tick across the head-frame boundary: 4 ticks.
	for i := 0; i < 4; i++ {
		tb.Tick()
	}
	if tb.HeadFrame() != 1 {
		t.Fatalf("head frame = %d after F ticks, want 1", tb.HeadFrame())
	}
	// The recycled frame 0 is a fresh future frame again: the next request
	// advances into it with a replenished reservation and succeeds.
	if _, ok := tb.Request(1, 4, 0); !ok {
		t.Fatal("request still throttled after frame recycle")
	}
	if ifr, c, r, _ := tb.FlowState(1); ifr != 0 || c != r-1 {
		t.Fatalf("flow state after recycle booking: IF=%d C=%d R=%d, want IF=0 C=R-1", ifr, c, r)
	}
}

func TestTickRecyclesSlotState(t *testing.T) {
	tb := newTestTable(t, 4, 2, 4)
	if err := tb.AddFlow(1, 4); err != nil {
		t.Fatal(err)
	}
	slot, ok := tb.Request(1, 0, 0)
	if !ok || slot != 1 {
		t.Fatalf("booking = (%d,%v)", slot, ok)
	}
	tb.Tick() // now=1, booked slot is current
	tb.Tick() // now=2, booked slot expired without being cleared
	if tb.NowSlot() != 2 {
		t.Fatalf("NowSlot = %d, want 2", tb.NowSlot())
	}
	// The expired slot reappears at the window end: time 1 + WT(8) = 9.
	if _, busy := tb.BusyAt(9); busy {
		t.Fatal("recycled slot still busy")
	}
	// Its credit inherits the cumulative window-end value (3: one quantum
	// outstanding against a 4-quantum buffer).
	if got := tb.CreditAt(9); got != 3 {
		t.Fatalf("recycled slot credit = %d, want 3", got)
	}
}

func TestReturnCreditRestoresFromTag(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(1, 8); err != nil {
		t.Fatal(err)
	}
	slot, _ := tb.Request(1, 0, 3) // books slot 3
	if slot != 3 {
		t.Fatalf("booked %d, want 3", slot)
	}
	tb.ReturnCredit(6) // downstream departure booked at slot 6
	for s := uint64(1); s < 6; s++ {
		want := 7
		if s < 3 {
			want = 8
		}
		if tb.CreditAt(s) != want {
			t.Fatalf("credit at %d = %d, want %d", s, tb.CreditAt(s), want)
		}
	}
	for s := uint64(6); s < 16; s++ {
		if tb.CreditAt(s) != 8 {
			t.Fatalf("credit at %d = %d, want 8", s, tb.CreditAt(s))
		}
	}
	if tb.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", tb.Outstanding())
	}
}

func TestReturnCreditPastTagRestoresWholeWindow(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(1, 8); err != nil {
		t.Fatal(err)
	}
	tb.Request(1, 0, 0)
	for i := 0; i < 4; i++ {
		tb.Tick()
	}
	tb.ReturnCredit(2) // tag now in the past
	for s := tb.NowSlot(); s < tb.NowSlot()+16; s++ {
		if tb.CreditAt(s) != 8 {
			t.Fatalf("credit at %d = %d, want 8", s, tb.CreditAt(s))
		}
	}
}

func TestOverReturnPanics(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(1, 8); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on credit over-return")
		}
	}()
	tb.ReturnCredit(1)
}

// TestOutputSchedulingAnomalyFixed replays the §4.2 example: F=4, WF=4,
// 4-flit input buffer, two flows with R=2. An aggressive flow exhausts its
// head-frame share while a moderate flow is active; when the aggressor
// tries to book into future frames, the yield condition blocks it (the
// eventual buffer space must cover the moderate's unspent reservation), the
// yielded reservation is recorded in skipped, and the moderate's later
// head-frame booking proceeds without the "silently overbooked buffer" of
// the anomaly — the table is strict, so a negative credit would panic.
func TestOutputSchedulingAnomalyFixed(t *testing.T) {
	tb := newYieldTable(t, 4, 4, 4)
	if err := tb.AddFlow(1, 2); err != nil { // flow_ij, aggressive
		t.Fatal(err)
	}
	if err := tb.AddFlow(2, 2); err != nil { // flow_mn, moderate
		t.Fatal(err)
	}
	// The moderate flow books one quantum (becoming active, C=1 left).
	if _, ok := tb.Request(2, 0, 0); !ok {
		t.Fatal("moderate booking failed")
	}
	// flow_ij books its full head-frame share.
	for q := uint64(0); q < 2; q++ {
		if _, ok := tb.Request(1, q, 0); !ok {
			t.Fatalf("aggressor booking %d failed", q)
		}
	}
	// A third aggressive quantum must not claim the buffer space the
	// moderate flow's remaining head-frame reservation needs: eventual
	// credit is 4-3=1, not more than the moderate's C=1, so frame 1 is
	// blocked and the aggressor yields (recorded in skipped).
	if _, ok := tb.Request(1, 2, 0); ok {
		t.Fatal("aggressor booked into frame 1 over the moderate's claim")
	}
	if tb.Skipped(1) != 2 {
		t.Fatalf("skipped(1) = %d, want 2 (yielded reservation)", tb.Skipped(1))
	}
	if tb.Stats().CondBlocks == 0 {
		t.Fatal("yield condition never blocked")
	}
	// The moderate flow books its remaining head-frame quantum safely.
	if _, ok := tb.Request(2, 1, 0); !ok {
		t.Fatal("moderate flow blocked from head frame")
	}
	for s := tb.NowSlot(); s < tb.NowSlot()+16; s++ {
		if tb.CreditAt(s) < 0 {
			t.Fatalf("negative credit at %d", s)
		}
	}
}

// TestSafetyCheckDeniesOverbooking drives bookings until the downstream
// buffer is fully committed and verifies further bookings are denied rather
// than driving any slot's credit negative (the constructive Theorem I
// enforcement).
func TestSafetyCheckDeniesOverbooking(t *testing.T) {
	tb := newTestTable(t, 4, 2, 4)
	if err := tb.AddFlow(1, 4); err != nil {
		t.Fatal(err)
	}
	booked := 0
	for q := uint64(0); q < 12; q++ {
		if _, ok := tb.Request(1, q, 0); ok {
			booked++
		}
	}
	if booked != 4 {
		t.Fatalf("booked %d quanta against a 4-quantum buffer, want 4", booked)
	}
	for s := tb.NowSlot(); s < tb.NowSlot()+8; s++ {
		if tb.CreditAt(s) < 0 {
			t.Fatalf("negative credit at %d", s)
		}
	}
}

func TestClearBusy(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(1, 4); err != nil {
		t.Fatal(err)
	}
	slot, _ := tb.Request(1, 0, 0)
	tb.ClearBusy(slot)
	if _, busy := tb.BusyAt(slot); busy {
		t.Fatal("slot still busy after ClearBusy")
	}
	// Credits must NOT be restored by ClearBusy.
	if tb.CreditAt(slot) != 7 {
		t.Fatalf("credit at cleared slot = %d, want 7", tb.CreditAt(slot))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("double ClearBusy must panic")
		}
	}()
	tb.ClearBusy(slot)
}

func TestFirstScheduled(t *testing.T) {
	tb := newTestTable(t, 8, 2, 8)
	if err := tb.AddFlow(1, 8); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := tb.FirstScheduled(); ok {
		t.Fatal("FirstScheduled on empty table")
	}
	s1, _ := tb.Request(1, 0, 4)
	s2, _ := tb.Request(1, 1, 2)
	if s2 >= s1 {
		t.Fatalf("expected second booking earlier: %d vs %d", s2, s1)
	}
	owner, at, ok := tb.FirstScheduled()
	if !ok || at != s2 || owner.Quantum != 1 {
		t.Fatalf("FirstScheduled = %+v @%d %v, want quantum 1 @%d", owner, at, ok, s2)
	}
}

func TestLocalStatusReset(t *testing.T) {
	tb := newTestTable(t, 4, 2, 4)
	if err := tb.AddFlow(1, 2); err != nil {
		t.Fatal(err)
	}
	for q := uint64(0); q < 4; q++ {
		if slot, ok := tb.Request(1, q, 0); ok {
			tb.ClearBusy(slot)
			tb.ReturnCredit(slot + 1)
		}
	}
	for i := 0; i < 3; i++ {
		tb.Tick()
	}
	if !tb.AllIdle() || tb.Outstanding() != 0 {
		t.Fatalf("precondition: idle=%v outstanding=%d", tb.AllIdle(), tb.Outstanding())
	}
	tb.Reset()
	if tb.HeadFrame() != 0 {
		t.Fatalf("head frame after reset = %d", tb.HeadFrame())
	}
	ifr, c, r, _ := tb.FlowState(1)
	if ifr != 0 || c != r {
		t.Fatalf("flow state after reset: IF=%d C=%d R=%d", ifr, c, r)
	}
	for s := tb.NowSlot(); s < tb.NowSlot()+8; s++ {
		if tb.CreditAt(s) != 4 {
			t.Fatalf("credit %d after reset, want 4", tb.CreditAt(s))
		}
	}
	// A full fresh window is bookable again.
	booked := 0
	for q := uint64(10); q < 20; q++ {
		slot, ok := tb.Request(1, q, 0)
		if !ok {
			continue
		}
		booked++
		tb.ClearBusy(slot)
		tb.ReturnCredit(slot + 1)
	}
	if booked != 4 {
		t.Fatalf("booked %d after reset, want 4", booked)
	}
	if tb.Stats().Resets != 1 {
		t.Fatalf("reset count = %d", tb.Stats().Resets)
	}
}

// kindCounter is an Emitter that counts the records it receives by kind.
type kindCounter map[probe.Kind]int

func (c kindCounter) EmitSeq(_ uint64, k probe.Kind, _, _, _ int32, _, _ uint64) { c[k]++ }

// TestEmitterKinds checks that a table calls its emitter for the kinds it
// was attached with and for no others, and that an emitter without kinds,
// or a nil one, leaves the table unobserved.
func TestEmitterKinds(t *testing.T) {
	tb := newTestTable(t, 4, 2, 4)
	if err := tb.AddFlow(1, 2); err != nil {
		t.Fatal(err)
	}
	got := kindCounter{}
	tb.SetEmitter(got, probe.KindSetOf(probe.KindReserveGrant, probe.KindVCreditGrant, probe.KindEject))
	if !tb.Observed() {
		t.Fatal("table with an emitter is not observed")
	}
	for q := uint64(0); q < 5; q++ {
		if slot, ok := tb.Request(1, q, 0); ok {
			tb.ClearBusy(slot)
			tb.ReturnCredit(slot + 1)
		}
	}
	s := tb.Stats()
	if s.FrameSkips == 0 || s.Throttled == 0 {
		t.Fatalf("run skipped %d frames and throttled %d times, want both > 0", s.FrameSkips, s.Throttled)
	}
	want := kindCounter{probe.KindReserveGrant: 4, probe.KindVCreditGrant: 4}
	if len(got) != len(want) || got[probe.KindReserveGrant] != 4 || got[probe.KindVCreditGrant] != 4 {
		t.Fatalf("emitter saw %v, want %v", got, want)
	}
	for _, c := range []struct {
		e    Emitter
		want probe.KindSet
	}{{got, 0}, {got, probe.KindSetOf(probe.KindEject)}, {nil, Kinds}} {
		tb.SetEmitter(c.e, c.want)
		if tb.Observed() {
			t.Fatalf("SetEmitter(%v, %b) left the table observed", c.e, c.want)
		}
	}
}

func TestPerFlowPerFrameBookingNeverExceedsR(t *testing.T) {
	tb := newTestTable(t, 8, 3, 8)
	if err := tb.AddFlow(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddFlow(2, 5); err != nil {
		t.Fatal(err)
	}
	count := map[flit.FlowID]map[int]int{1: {}, 2: {}}
	q := uint64(0)
	for i := 0; i < 40; i++ {
		for _, f := range []flit.FlowID{1, 2} {
			if slot, ok := tb.Request(f, q, 0); ok {
				frame := int(slot%uint64(tb.WindowSlots())) / 8
				count[f][frame]++
				q++
			}
		}
	}
	for f, frames := range count {
		r := tb.Reservation(f)
		for frame, n := range frames {
			if n > r {
				t.Fatalf("flow %d booked %d quanta in frame %d, R=%d", f, n, frame, r)
			}
		}
	}
}

// quickOp drives the property-based harness below.
type quickOp struct {
	Kind  uint8
	Flow  uint8
	Delta uint8
}

// TestQuickTheoremI runs random request/tick sequences against a simulated
// downstream that books onward departures a bounded delay after each
// booking, returning virtual credits with correct tags. The table runs in
// strict mode: any Theorem I violation (negative credit or credit above
// capacity) panics and fails the test. We additionally check busy-slot
// conservation against outstanding bookings.
func TestQuickTheoremI(t *testing.T) {
	check := func(ops []quickOp) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("invariant panic: %v", r)
				ok = false
			}
		}()
		const F, WF, BN = 8, 3, 8
		tb := NewTable("quick", Params{SlotsPerFrame: F, Frames: WF, BufferQuanta: BN, Strict: true})
		flows := []flit.FlowID{1, 2, 3}
		if err := tb.AddFlow(1, 3); err != nil {
			return false
		}
		if err := tb.AddFlow(2, 3); err != nil {
			return false
		}
		if err := tb.AddFlow(3, 2); err != nil {
			return false
		}
		type pending struct{ slot uint64 }
		var inflight []pending
		q := uint64(0)
		for _, op := range ops {
			switch op.Kind % 3 {
			case 0: // request
				f := flows[int(op.Flow)%len(flows)]
				if slot, ok := tb.Request(f, q, tb.NowSlot()+uint64(op.Delta%4)); ok {
					q++
					inflight = append(inflight, pending{slot: slot})
				}
			case 1: // downstream books onward: return credit
				if len(inflight) > 0 {
					p := inflight[0]
					inflight = inflight[1:]
					tag := p.slot + 1 + uint64(op.Delta%4)
					// Keep the tag within the live window.
					if tag >= tb.NowSlot()+uint64(tb.WindowSlots()) {
						tag = tb.NowSlot() + uint64(tb.WindowSlots()) - 1
					}
					tb.ReturnCredit(tag)
				}
			case 2: // time passes
				for i := 0; i <= int(op.Delta%3); i++ {
					tb.Tick()
				}
			}
			// Invariants beyond the strict-mode panics. (Busy slots are NOT
			// bounded by Outstanding: a virtual credit legitimately returns
			// as soon as the downstream books the onward departure, which
			// can precede the local departure slot.)
			for s := tb.NowSlot(); s < tb.NowSlot()+uint64(tb.WindowSlots()); s++ {
				c := tb.CreditAt(s)
				if c < 0 || c > BN {
					t.Logf("credit %d out of range at slot %d", c, s)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickFrameShareIsolation checks, under random interleavings, that a
// flow can always book at least one quantum into a fresh window after the
// competitors stopped and all credits returned — i.e. aggressors cannot
// permanently exhaust a moderate flow's reservation.
func TestQuickFrameShareIsolation(t *testing.T) {
	check := func(aggrBursts uint8) bool {
		const F, WF, BN = 8, 2, 8
		tb := NewTable("iso", Params{SlotsPerFrame: F, Frames: WF, BufferQuanta: BN, Strict: true})
		if err := tb.AddFlow(1, 4); err != nil {
			return false
		}
		if err := tb.AddFlow(2, 4); err != nil {
			return false
		}
		q := uint64(0)
		var booked []uint64
		for i := 0; i < int(aggrBursts%32)+1; i++ {
			if slot, ok := tb.Request(1, q, 0); ok {
				booked = append(booked, slot)
				q++
			}
		}
		// Drain: downstream forwards everything promptly.
		for _, s := range booked {
			tb.ClearBusy(s)
			tb.ReturnCredit(s + 1)
		}
		// Advance one full frame so the head recycles.
		for i := 0; i < F; i++ {
			tb.Tick()
		}
		_, ok := tb.Request(2, 1000, 0)
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickReferenceCredits replays random operation sequences against a
// naive reference implementation of the cumulative credit ledger (recompute
// from the full event history each step) and requires the table's live
// window to agree exactly.
func TestQuickReferenceCredits(t *testing.T) {
	type op struct {
		Kind  uint8
		Delta uint8
	}
	check := func(ops []op) bool {
		const F, WF, BN = 6, 2, 8
		tb := NewTable("ref", Params{SlotsPerFrame: F, Frames: WF, BufferQuanta: BN, Strict: true})
		if err := tb.AddFlow(1, 4); err != nil {
			return false
		}
		// Reference event history in absolute slot time.
		var bookings []uint64 // booked departure slots
		var returns []uint64  // return tags
		var booked []uint64   // outstanding (for generating valid returns)
		q := uint64(0)
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0:
				if slot, ok := tb.Request(1, q, tb.NowSlot()+uint64(o.Delta%3)); ok {
					bookings = append(bookings, slot)
					booked = append(booked, slot)
					q++
				}
			case 1:
				if len(booked) > 0 {
					s := booked[0]
					booked = booked[1:]
					tag := s + 1 + uint64(o.Delta%3)
					if tag >= tb.NowSlot()+uint64(tb.WindowSlots()) {
						tag = tb.NowSlot() + uint64(tb.WindowSlots()) - 1
					}
					tb.ReturnCredit(tag)
					returns = append(returns, tag)
				}
			case 2:
				tb.Tick()
			}
			// Reference: credit(s) = BN − #bookings ≤ s + #returns ≤ s.
			for s := tb.NowSlot(); s < tb.NowSlot()+uint64(tb.WindowSlots()); s++ {
				want := BN
				for _, b := range bookings {
					if b <= s {
						want--
					}
				}
				for _, r := range returns {
					if r <= s {
						want++
					}
				}
				if got := tb.CreditAt(s); got != want {
					t.Logf("slot %d: table %d, reference %d", s, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickDenseFlowTableEquivalence guards the dense-slice flow table
// refactor: it drives random Request/Tick/credit-return traces over a sparse
// flow-id universe (exercising slice growth and holes) against a map-backed
// shadow of the pre-refactor representation plus a cumulative credit ledger,
// and requires every observable — membership, reservations, admission
// decisions, outstanding count, the live credit window — to agree exactly.
func TestQuickDenseFlowTableEquivalence(t *testing.T) {
	type op struct {
		Kind  uint8
		Flow  uint8
		Delta uint8
	}
	check := func(ops []op) bool {
		const F, WF, BN = 8, 2, 8
		tb := NewTable("dense", Params{SlotsPerFrame: F, Frames: WF, BufferQuanta: BN, Strict: true})
		// Shadow of the old representation: flows keyed by map.
		shadow := map[flit.FlowID]int{} // id -> reservation
		sumR := 0
		// Cumulative credit ledger in absolute slot time.
		var bookings, returns []uint64
		var booked []uint64
		outstanding := 0
		q := uint64(0)
		// Sparse ids force the dense table to grow past holes.
		ids := []flit.FlowID{0, 3, 7, 12, 31}
		for _, o := range ops {
			id := ids[int(o.Flow)%len(ids)]
			switch o.Kind % 4 {
			case 0: // register
				r := int(o.Delta%3) + 1
				err := tb.AddFlow(id, r)
				_, dup := shadow[id]
				if wantErr := dup || sumR+r > F; wantErr != (err != nil) {
					t.Logf("AddFlow(%d,%d): table err=%v, shadow wantErr=%v", id, r, err, wantErr)
					return false
				}
				if err == nil {
					shadow[id] = r
					sumR += r
				}
			case 1: // request (only registered flows may request)
				if _, ok := shadow[id]; !ok {
					continue
				}
				if slot, ok := tb.Request(id, q, tb.NowSlot()+uint64(o.Delta%3)); ok {
					bookings = append(bookings, slot)
					booked = append(booked, slot)
					outstanding++
					q++
				}
			case 2: // downstream books onward: credit returns
				if len(booked) > 0 {
					s := booked[0]
					booked = booked[1:]
					tag := s + 1 + uint64(o.Delta%3)
					if tag >= tb.NowSlot()+uint64(tb.WindowSlots()) {
						tag = tb.NowSlot() + uint64(tb.WindowSlots()) - 1
					}
					tb.ReturnCredit(tag)
					returns = append(returns, tag)
					outstanding--
				}
			case 3: // time passes
				tb.Tick()
			}
			// Flow-table observables across the whole id universe, plus ids
			// outside it (never registered, beyond the slice, negative).
			for _, pid := range append([]flit.FlowID{-1, 1, 1 << 20}, ids...) {
				r, registered := shadow[pid]
				if tb.HasFlow(pid) != registered {
					t.Logf("HasFlow(%d) = %v, shadow %v", pid, !registered, registered)
					return false
				}
				if got := tb.Reservation(pid); got != r {
					t.Logf("Reservation(%d) = %d, shadow %d", pid, got, r)
					return false
				}
				_, _, fr, ok := tb.FlowState(pid)
				if ok != registered || fr != r {
					t.Logf("FlowState(%d) = (r=%d, ok=%v), shadow (r=%d, ok=%v)", pid, fr, ok, r, registered)
					return false
				}
			}
			if tb.Outstanding() != outstanding {
				t.Logf("Outstanding() = %d, ledger %d", tb.Outstanding(), outstanding)
				return false
			}
			// Credit window vs the cumulative ledger (exercises the inlined
			// suffix walks in consumeCredits/ReturnCredit).
			for s := tb.NowSlot(); s < tb.NowSlot()+uint64(tb.WindowSlots()); s++ {
				want := BN
				for _, b := range bookings {
					if b <= s {
						want--
					}
				}
				for _, r := range returns {
					if r <= s {
						want++
					}
				}
				if got := tb.CreditAt(s); got != want {
					t.Logf("slot %d: credit %d, ledger %d", s, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
