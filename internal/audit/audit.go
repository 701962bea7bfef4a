// Package audit is the runtime QoS auditor: a per-packet flight recorder
// with delay-bound conformance checking and a scheduler invariant auditor.
//
// The paper's claims are *guarantees* — Theorem I's per-flow delay bound
// and the condition-(1)/skipped(i) safety argument — so the auditor checks
// them packet by packet and grant by grant while a simulation runs, instead
// of trusting aggregate latency curves:
//
//   - The flight recorder (recorder.go) follows every quantum from its
//     injection-table booking through each hop's look-ahead reservation and
//     switch traversal to ejection, and verdicts every completed packet's
//     network latency against its flow's analytical delay bound. A GS
//     packet over its bound is a hard audit failure carrying the
//     reconstructed hop-by-hop timeline. In-flight records are found in
//     per-flow rows indexed by sequence (seqRows); they come from a slab of
//     chunks whose hop storage is cut at a fixed stride, and are recycled
//     when their packet completes: steady state allocates nothing.
//   - The invariant auditor (this file) taps every LSF table as its
//     lsf.Emitter, from slabs of tap state kept across the runs of a
//     sweep: shadow grant/return/skipped accounting from the table's
//     records, the condition-(1)/Theorem-I admission inequality at every
//     grant (window-end credit == BN − outstanding, and non-negative), and a
//     periodic full-window sweep of credit bounds and busy-slot consistency,
//     plus architecture-registered checks (flit conservation, buffer
//     occupancy, GSF frame accounting).
//
// Snapshot (recorder.go) is the auditor's whole verdict; the CLIs write it as
// audit.json into the -out run directory.
//
// All Auditor methods are nil-receiver safe: a disabled auditor costs the
// simulator one pointer test per hook site.
package audit

import (
	"fmt"

	"loft/internal/flit"
	"loft/internal/lsf"
	"loft/internal/probe"
)

// sweepEvery is the cycle period of the full invariant sweep (every
// table's whole window plus the registered checks); the O(1) per-grant
// checks always run.
const sweepEvery = 1024

// Config sizes an Auditor.
type Config struct {
	// MaxViolations caps the retained violation log (the total count is
	// always exact). 0 means the default (32).
	MaxViolations int
}

func (c Config) withDefaults() Config {
	if c.MaxViolations == 0 {
		c.MaxViolations = 32
	}
	return c
}

// Violation is one audit failure: a broken invariant or a packet over its
// delay bound.
type Violation struct {
	Kind   string `json:"kind"`
	Cycle  uint64 `json:"cycle"`
	Where  string `json:"where,omitempty"` // table name, check name, or flow
	Detail string `json:"detail"`
	// Conformance violations carry the packet identity and the
	// reconstructed hop-by-hop timeline.
	Flow     int32      `json:"flow,omitempty"`
	Packet   uint64     `json:"packet,omitempty"`
	Latency  uint64     `json:"latency_cycles,omitempty"`
	Bound    uint64     `json:"bound_cycles,omitempty"`
	Timeline []HopEvent `json:"timeline,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("cycle %d: %s", v.Cycle, v.Kind)
	if v.Where != "" {
		s += " at " + v.Where
	}
	return s + ": " + v.Detail
}

type namedCheck struct {
	name string
	fn   func() error
}

// Auditor is the runtime QoS auditor. A nil *Auditor is a valid, inert
// auditor: every method no-ops.
type Auditor struct {
	cfg  Config
	arch string // "loft" or "gsf" (last Begin*)
	runs int

	now         uint64
	totalCycles uint64 // current run's planned length (StartRun)

	tables  []*tableState
	credits []int // checkTable's window read, reused across tables
	checks  []namedCheck
	// taps and skipped are the slabs WatchTable cuts tableStates and their
	// shadow skipped(i) counters from. They are kept across runs; tapsUsed
	// and skippedUsed count what the current run has cut.
	taps        [][]tableState
	tapsUsed    int
	skipped     []int
	skippedUsed int

	rec recorder

	violations      []Violation
	totalViolations uint64
	sweeps          uint64
	// grantChecks counts the per-grant checks of finished runs; the current
	// run's are the sum of its tables' granted counters (grantChecksSoFar).
	grantChecks uint64
	// The finished runs' checked packets, watched tables and worst latency
	// as a percentage of its bound; Snapshot and Summary add the current
	// run's, so a sweep's verdict covers the packets its violation log does.
	packetsChecked uint64
	tablesWatched  int
	worstMarginPct float64
}

// New returns an enabled auditor.
func New(cfg Config) *Auditor {
	return &Auditor{cfg: cfg.withDefaults()}
}

// beginRun resets the per-run state (taps, checks, recorder) while keeping
// the violation log and folding the finished run into the totals: one
// auditor accumulates across the runs of a sweep.
func (a *Auditor) beginRun(arch string) {
	a.arch = arch
	a.runs++
	a.grantChecks = a.grantChecksSoFar()
	a.packetsChecked += a.rec.packetsDone
	a.tablesWatched += len(a.tables)
	for i := range a.rec.flows {
		a.worstMarginPct = max(a.worstMarginPct, a.rec.flows[i].marginPct())
	}
	// Drop the last run's tables and checks, which reach into its network.
	for _, ts := range a.tables {
		*ts = tableState{pending: ts.pending[:0]}
	}
	a.tables, a.tapsUsed, a.skippedUsed = a.tables[:0], 0, 0
	a.checks = nil
}

// WatchTable attaches invariant taps to one LSF table of the node that
// emits into stage. They replace the table's emitter, so call it after the
// node has attached stage; the table calls them for the kinds stage wants
// and the five they check, and they pass each record on to stage. A
// violation names the table by its Name. The taps read live table state
// when they fire — deferring the reads would change what they see — and run
// while the node computes, so they touch only the table's own tableState; a
// violation waits there, behind a KindTapViolation marker in the stage that
// keeps its place among the node's records, until Record logs it.
//
// The tableState comes from a slab the next run's Begin* reuses, so a table
// watched in one run must not emit after the next run begins.
func (a *Auditor) WatchTable(t *lsf.Table, stage *probe.Stage) {
	if a == nil {
		return
	}
	ts := a.cutTap()
	*ts = tableState{
		t:             t,
		stage:         stage,
		index:         uint64(len(a.tables)),
		pending:       ts.pending[:0],
		shadowSkipped: a.cutSkipped(t.FrameCount()),
		minEndCredit:  t.BufferCap(),
	}
	a.tables = append(a.tables, ts)
	t.SetEmitter(ts, stage.Kinds()|probe.KindSetOf(probe.KindReserveGrant, probe.KindFrameSkip,
		probe.KindFrameRecycle, probe.KindVCreditGrant, probe.KindLocalReset))
}

// cutTap returns the next tableState of the taps slab, adding a chunk as
// large as the slab when every one is in use.
func (a *Auditor) cutTap() *tableState {
	i := a.tapsUsed
	for _, c := range a.taps {
		if i < len(c) {
			a.tapsUsed++
			return &c[i]
		}
		i -= len(c)
	}
	a.taps = append(a.taps, make([]tableState, max(a.tapsUsed, 64)))
	a.tapsUsed++
	return &a.taps[len(a.taps)-1][0]
}

// cutSkipped returns n zeroed counters of the skipped slab. A slab too short
// is replaced by one twice as long; the counters already cut keep the old
// one.
func (a *Auditor) cutSkipped(n int) []int {
	if a.skippedUsed+n > len(a.skipped) {
		a.skipped, a.skippedUsed = make([]int, max(2*len(a.skipped), 64*n)), 0
	}
	s := a.skipped[a.skippedUsed : a.skippedUsed+n : a.skippedUsed+n]
	a.skippedUsed += n
	clear(s)
	return s
}

// grantChecksSoFar counts the O(1) admission checks run since New. Grants
// are counted per table, by the node that owns it; summing here instead of
// bumping a shared counter keeps the taps off shared state.
func (a *Auditor) grantChecksSoFar() uint64 {
	n := a.grantChecks
	for _, ts := range a.tables {
		n += ts.granted
	}
	return n
}

// RegisterCheck adds an architecture-specific invariant evaluated on every
// periodic sweep; a non-nil error is a violation.
func (a *Auditor) RegisterCheck(name string, fn func() error) {
	if a == nil {
		return
	}
	a.checks = append(a.checks, namedCheck{name, fn})
}

// StartRun records the planned run length (the snapshot's total_cycles).
func (a *Auditor) StartRun(totalCycles uint64) {
	if a == nil {
		return
	}
	a.totalCycles = totalCycles
	a.now = 0
}

// OnCycle advances the auditor's clock; every sweepEvery cycles it runs the
// full invariant sweep. Called once per cycle from the harness's serial
// commit, on the simulation thread.
func (a *Auditor) OnCycle(now uint64) {
	if a == nil {
		return
	}
	a.now = now
	if now > 0 && now%sweepEvery == 0 {
		a.sweep()
	}
}

// FinishRun runs a final sweep and the quarantine throttle checks at the end
// of a run.
func (a *Auditor) FinishRun(now uint64) {
	if a == nil {
		return
	}
	a.now = now
	a.sweep()
	a.checkQuarantines()
}

// violate records one audit failure.
func (a *Auditor) violate(v Violation) {
	v.Cycle = a.now
	a.totalViolations++
	if len(a.violations) < a.cfg.MaxViolations {
		a.violations = append(a.violations, v)
	}
}

// sweep runs the full O(window) table checks and the registered checks.
func (a *Auditor) sweep() {
	for _, ts := range a.tables {
		a.checkTable(ts)
	}
	for _, c := range a.checks {
		if err := c.fn(); err != nil {
			a.violate(Violation{Kind: "check-failed", Where: c.name, Detail: err.Error()})
		}
	}
	a.sweeps++
}

// Violations returns the retained violation log.
func (a *Auditor) Violations() []Violation {
	if a == nil {
		return nil
	}
	return a.violations
}

// Err returns nil when the audit is clean, or an error naming the first
// violation and the total count.
func (a *Auditor) Err() error {
	if a == nil || a.totalViolations == 0 {
		return nil
	}
	first := "(log empty)"
	if len(a.violations) > 0 {
		first = a.violations[0].String()
	}
	return fmt.Errorf("audit: %d violation(s); first: %s", a.totalViolations, first)
}

// tableState shadows one LSF table's bookkeeping. As the table's emitter it
// sees the record of each mutation right after it, within the node's tick,
// and cross-checks the table's own state against independently-maintained
// shadow counters, so any divergence is a real scheduler fault, not a race.
type tableState struct {
	t *lsf.Table
	// stage is the owning node's record stream and index this table's place
	// in Auditor.tables: what a KindTapViolation marker carries. pending
	// holds the violations raised since the last barrier, the first logged
	// of them already handed to Record.
	stage   *probe.Stage
	index   uint64
	pending []Violation
	logged  int

	// shadowOutstanding counts observed grants minus observed returns; it
	// must always equal the table's Outstanding().
	shadowOutstanding int
	// shadowSkipped mirrors the per-frame skipped(i) counters from observed
	// frame advances and recycles.
	shadowSkipped []int
	granted       uint64
	returned      uint64
	clamps        uint64 // last seen CreditClamps
	minEndCredit  int    // worst admission headroom seen (diagnostics)
}

// EmitSeq passes a table record on to the node's stage, then runs its kind's
// tap, so a violation's marker follows the record that raised it.
func (ts *tableState) EmitSeq(cycle uint64, k probe.Kind, node, loc, flow int32, seq, arg uint64) {
	ts.stage.EmitSeq(cycle, k, node, loc, flow, seq, arg)
	switch k {
	case probe.KindReserveGrant:
		ts.grant(flit.FlowID(flow), seq, arg/ts.t.CyclesPerSlot())
	case probe.KindFrameSkip:
		// The skipped(i) accounting the §4.2 anomaly fix depends on, checked
		// as a flow abandons reservations: the record precedes the move, so
		// the flow's IF is still the abandoned frame.
		frame, _, _, _ := ts.t.FlowState(flit.FlowID(flow))
		ts.shadowSkipped[frame] += int(arg)
		if got := ts.t.Skipped(frame); got != ts.shadowSkipped[frame] {
			ts.report(Violation{Kind: "skipped-accounting", Where: ts.t.Name(), Flow: flow,
				Detail: fmt.Sprintf("skipped(%d) = %d, observed abandonments say %d", frame, got, ts.shadowSkipped[frame])})
		}
	case probe.KindFrameRecycle: // arg is the new head frame
		wf := len(ts.shadowSkipped)
		ts.shadowSkipped[(int(arg)+wf-1)%wf] = 0
	case probe.KindVCreditGrant:
		ts.returned++
		ts.shadowOutstanding--
		if ts.shadowOutstanding < 0 {
			ts.report(Violation{Kind: "return-underflow", Where: ts.t.Name(),
				Detail: fmt.Sprintf("more virtual-credit returns (%d) than grants (%d)", ts.returned, ts.granted)})
			ts.shadowOutstanding = 0
		}
	case probe.KindLocalReset:
		ts.shadowOutstanding = 0
		clear(ts.shadowSkipped)
	}
}

// grant runs the O(1) per-injection admission check: after the booking
// the window-end cumulative credit must equal BN − outstanding and stay
// non-negative — the constructive form of the paper's condition-(1)/
// Theorem I inequality (see lsf.EndCredit and DESIGN.md §10).
func (ts *tableState) grant(f flit.FlowID, quantum, slot uint64) {
	ts.granted++
	ts.shadowOutstanding++
	end := ts.t.EndCredit()
	if end < ts.minEndCredit {
		ts.minEndCredit = end
	}
	if end < 0 {
		ts.report(Violation{Kind: "admission-negative-credit", Where: ts.t.Name(), Flow: int32(f),
			Detail: fmt.Sprintf("grant of flow %d quantum %d at slot %d left window-end credit %d < 0", f, quantum, slot, end)})
	}
	out := ts.t.Outstanding()
	if end != ts.t.BufferCap()-out {
		ts.report(Violation{Kind: "credit-conservation", Where: ts.t.Name(), Flow: int32(f),
			Detail: fmt.Sprintf("window-end credit %d != BN %d - outstanding %d after grant", end, ts.t.BufferCap(), out)})
	}
	if out != ts.shadowOutstanding {
		ts.report(Violation{Kind: "outstanding-mismatch", Where: ts.t.Name(),
			Detail: fmt.Sprintf("table outstanding %d != observed grants-returns %d", out, ts.shadowOutstanding)})
	}
	now := ts.t.NowSlot()
	if slot <= now || slot >= now+uint64(ts.t.WindowSlots()) {
		ts.report(Violation{Kind: "slot-outside-window", Where: ts.t.Name(), Flow: int32(f),
			Detail: fmt.Sprintf("booked slot %d outside (%d, %d]", slot, now, now+uint64(ts.t.WindowSlots()))})
	}
}

// report raises one tap violation: it joins the table's pending list and a
// marker takes its place in the node's record stream. Record stamps the
// cycle when it logs it, before OnCycle advances the clock.
func (ts *tableState) report(v Violation) {
	ts.pending = append(ts.pending, v)
	ts.stage.Emit(0, probe.KindTapViolation, -1, -1, -1, ts.index)
}

// tapViolation logs the oldest pending violation of table number index.
func (a *Auditor) tapViolation(index uint64) {
	ts := a.tables[index]
	a.violate(ts.pending[ts.logged])
	if ts.logged++; ts.logged == len(ts.pending) {
		ts.pending, ts.logged = ts.pending[:0], 0
	}
}

// checkTable is the periodic O(window) sweep of one table: every live
// slot's credit within [0, BN], busy slots consistent with the booked
// count, the end-of-window credit ledger conserved, and the shadow counters
// in agreement with the table.
func (a *Auditor) checkTable(ts *tableState) {
	t := ts.t
	bn := t.BufferCap()
	now := t.NowSlot()
	minC, maxC, busy := bn, 0, 0
	a.credits = t.AppendCredits(a.credits[:0])
	for i, c := range a.credits {
		minC = min(minC, c)
		maxC = max(maxC, c)
		if _, b := t.BusyAt(now + uint64(i)); b {
			busy++
		}
	}
	if minC < 0 {
		a.violate(Violation{Kind: "credit-negative", Where: t.Name(),
			Detail: fmt.Sprintf("window contains a slot with credit %d < 0", minC)})
	}
	if maxC > bn {
		a.violate(Violation{Kind: "credit-overflow", Where: t.Name(),
			Detail: fmt.Sprintf("window contains a slot with credit %d > BN %d", maxC, bn)})
	}
	if end, out := t.EndCredit(), t.Outstanding(); end != bn-out {
		a.violate(Violation{Kind: "credit-conservation", Where: t.Name(),
			Detail: fmt.Sprintf("window-end credit %d != BN %d - outstanding %d", end, bn, out)})
	}
	if busy != t.BookedSlots() {
		a.violate(Violation{Kind: "busy-count", Where: t.Name(),
			Detail: fmt.Sprintf("window holds %d busy slots, table counts %d", busy, t.BookedSlots())})
	}
	if out := t.Outstanding(); out != ts.shadowOutstanding {
		a.violate(Violation{Kind: "outstanding-mismatch", Where: t.Name(),
			Detail: fmt.Sprintf("table outstanding %d != observed grants-returns %d", out, ts.shadowOutstanding)})
	}
	for f := 0; f < t.FrameCount(); f++ {
		if got := t.Skipped(f); got != ts.shadowSkipped[f] {
			a.violate(Violation{Kind: "skipped-accounting", Where: t.Name(),
				Detail: fmt.Sprintf("skipped(%d) = %d, observed abandonments say %d", f, got, ts.shadowSkipped[f])})
		}
	}
	if clamps := t.Stats().CreditClamps; clamps != ts.clamps {
		a.violate(Violation{Kind: "credit-clamped", Where: t.Name(),
			Detail: fmt.Sprintf("%d credit updates clamped since last sweep (non-strict Theorem I violation)", clamps-ts.clamps)})
		ts.clamps = clamps
	}
}
