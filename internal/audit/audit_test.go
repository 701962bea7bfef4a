package audit_test

import (
	"regexp"
	"strconv"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/gsf"
	"loft/internal/loft"
	"loft/internal/lsf"
	"loft/internal/probe"
	"loft/internal/traffic"
)

// faultTable builds a small non-strict table under audit. Strict mode would
// panic on the injected faults before the auditor sees them, which is
// exactly the redundancy the auditor exists to provide for production
// (non-strict) runs. barrier hands the auditor what the taps staged, as the
// harness does once a cycle.
func faultTable(t *testing.T) (aud *audit.Auditor, tb *lsf.Table, barrier func()) {
	t.Helper()
	aud = audit.New(audit.Config{})
	stage := probe.NewStage(aud.Kinds())
	tb = lsf.NewTable("faulty", lsf.Params{SlotsPerFrame: 4, Frames: 2, BufferQuanta: 4})
	aud.WatchTable(tb, &stage)
	if err := tb.AddFlow(1, 2); err != nil {
		t.Fatal(err)
	}
	return aud, tb, func() {
		for _, r := range stage.Drain() {
			aud.Record(&r)
		}
	}
}

func violationKinds(aud *audit.Auditor) map[string]int {
	kinds := map[string]int{}
	for _, v := range aud.Violations() {
		kinds[v.Kind]++
	}
	return kinds
}

// TestFaultDropSkippedCaught injects the scheduler fault that silently
// drops the skipped(i) accounting the §4.2 anomaly fix depends on, and
// requires the auditor to flag it at the moment of the frame advance.
func TestFaultDropSkippedCaught(t *testing.T) {
	aud, tb, barrier := faultTable(t)
	tb.InjectFault(lsf.FaultDropSkipped)
	// minSlot 4 is in frame 1: the flow must abandon its full frame-0
	// reservation (c=2), which the faulty table fails to record.
	if _, ok := tb.Request(1, 0, 4); !ok {
		t.Fatal("request denied")
	}
	if n := len(aud.Violations()); n != 0 {
		t.Fatalf("%d violation(s) logged before the barrier", n)
	}
	barrier()
	if violationKinds(aud)["skipped-accounting"] == 0 {
		t.Fatalf("dropped skipped(i) update not caught; violations: %v", aud.Violations())
	}
	if aud.Err() == nil {
		t.Fatal("Err() is nil despite violations")
	}
}

// TestFaultLeakCreditCaught injects a credit-return fault (the return is
// acknowledged but the slot ledger is never incremented) and requires the
// conservation check on the next grant to flag the divergence.
func TestFaultLeakCreditCaught(t *testing.T) {
	aud, tb, barrier := faultTable(t)
	slot, ok := tb.Request(1, 0, 0)
	if !ok {
		t.Fatal("request denied")
	}
	tb.InjectFault(lsf.FaultLeakCredit)
	tb.ReturnCredit(slot)
	if _, ok := tb.Request(1, 1, 0); !ok {
		t.Fatal("second request denied")
	}
	barrier()
	if violationKinds(aud)["credit-conservation"] == 0 {
		t.Fatalf("leaked credit not caught; violations: %v", aud.Violations())
	}
}

// TestFaultFreeTableIsClean is the control: the same drive without faults
// must not trip any check.
func TestFaultFreeTableIsClean(t *testing.T) {
	aud, tb, barrier := faultTable(t)
	s0, ok := tb.Request(1, 0, 0)
	if !ok {
		t.Fatal("request denied")
	}
	if _, ok := tb.Request(1, 1, 4); !ok {
		t.Fatal("second request denied")
	}
	tb.ReturnCredit(s0)
	for i := 0; i < 8; i++ {
		tb.Tick()
	}
	barrier()
	aud.FinishRun(8)
	if err := aud.Err(); err != nil {
		t.Fatalf("clean drive flagged: %v", err)
	}
	if aud.Snapshot().GrantChecks != 2 {
		t.Fatalf("grant checks = %d, want 2", aud.Snapshot().GrantChecks)
	}
}

// caseIPattern is the paper's Case Study I (regulated GS victim vs DoS
// aggressors) on the full 8x8 paper configuration — the highest-stakes QoS
// scenario the repo models.
func caseIPattern(cfg config.LOFT) *traffic.Pattern {
	return traffic.CaseStudyI(cfg.Mesh(), 0.2, 0.6, cfg.PacketFlits, cfg.FrameFlits)
}

// TestAuditedCaseStudyIClean is the acceptance run: an unmodified 8x8 LOFT
// simulation under high GS load must report zero invariant and delay-bound
// violations, and attaching the auditor must not change the simulation.
func TestAuditedCaseStudyIClean(t *testing.T) {
	cfg := config.PaperLOFTSpec(12)
	p := caseIPattern(cfg)
	spec := core.RunSpec{Seed: 1, Warmup: 500, Measure: 2500}
	bare, _, err := core.RunLOFT(cfg, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	aud := audit.New(audit.Config{})
	spec.Audit = aud
	audited, _, err := core.RunLOFT(cfg, p, spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("audit of an unmodified run failed: %v", err)
	}
	snap := aud.Snapshot()
	if !snap.Clean || snap.PacketsChecked == 0 || snap.GrantChecks == 0 || snap.InvariantSweeps == 0 {
		t.Fatalf("audit did no work: %+v", snap)
	}
	if snap.WorstMarginPct <= 0 || snap.WorstMarginPct > 100 {
		t.Fatalf("worst margin %.1f%% outside (0, 100]", snap.WorstMarginPct)
	}
	booked, injected, ejected := aud.RecorderCounts()
	if booked == 0 || injected == 0 || ejected == 0 {
		t.Fatalf("recorder ledger empty: %d/%d/%d", booked, injected, ejected)
	}
	if bare.Packets != audited.Packets || bare.AvgLatency != audited.AvgLatency ||
		bare.TotalRate != audited.TotalRate || bare.MaxLatency != audited.MaxLatency {
		t.Fatalf("auditing changed the simulation: bare %+v vs audited %+v", bare, audited)
	}
}

// TestAuditedGSFClean runs the same acceptance check on the GSF baseline
// (packet-level conformance only, no tables to shadow).
func TestAuditedGSFClean(t *testing.T) {
	lcfg := config.PaperLOFTSpec(12)
	p := caseIPattern(lcfg)
	aud := audit.New(audit.Config{})
	spec := core.RunSpec{Seed: 1, Warmup: 500, Measure: 2000, Audit: aud}
	if _, _, err := core.RunGSF(config.PaperGSF(), p, lcfg.FrameFlits, spec); err != nil {
		t.Fatal(err)
	}
	if err := aud.Err(); err != nil {
		t.Fatalf("audit of an unmodified GSF run failed: %v", err)
	}
	if snap := aud.Snapshot(); snap.PacketsChecked == 0 {
		t.Fatalf("no packets checked: %+v", snap)
	}
}

// TestDelayBoundViolationTimeline forces a conformance failure (bound of 1
// cycle on the victim flow) and checks the reconstructed hop-by-hop
// timeline on the resulting violation.
func TestDelayBoundViolationTimeline(t *testing.T) {
	cfg := config.PaperLOFTSpec(12)
	p := caseIPattern(cfg)
	aud := audit.New(audit.Config{})
	net, err := loft.New(cfg, p, loft.Options{Seed: 1, Audit: aud})
	if err != nil {
		t.Fatal(err)
	}
	aud.SetFlowBound(traffic.CaseStudyIVictim, 1)
	aud.StartRun(2000)
	net.Run(2000)
	aud.FinishRun(net.Now())
	var hit *audit.Violation
	for i, v := range aud.Violations() {
		if v.Kind == "delay-bound-exceeded" {
			hit = &aud.Violations()[i]
			break
		}
	}
	if hit == nil {
		t.Fatalf("no delay-bound-exceeded violation; got %v", aud.Violations())
	}
	if hit.Flow != int32(traffic.CaseStudyIVictim) || hit.Bound != 1 || hit.Latency <= hit.Bound {
		t.Fatalf("violation fields wrong: %+v", hit)
	}
	if len(hit.Timeline) == 0 {
		t.Fatal("violation carries no flight timeline")
	}
	stages := map[string]bool{}
	last := int64(-1)
	for _, h := range hit.Timeline {
		stages[h.Stage] = true
		if int64(h.Cycle) < last {
			t.Fatalf("timeline not time-ordered: %+v", hit.Timeline)
		}
		last = int64(h.Cycle)
	}
	for _, want := range []string{"book", "inject", "eject"} {
		if !stages[want] {
			t.Fatalf("timeline missing stage %q: %+v", want, hit.Timeline)
		}
	}
	summary := aud.Summary()
	if len(summary) == 0 || summary[len(summary)-1][:11] != "audit: FAIL" {
		t.Fatalf("summary does not report failure: %v", summary)
	}
}

// TestSummaryCoversSweep runs two LOFT runs on one auditor, as a sweep
// does: the first fails through a one-cycle bound on the victim flow, the
// second is clean. The verdict must cover both runs, like the violation log
// it summarises: the first run's worst margin, both runs' checked packets
// and both runs' tables.
func TestSummaryCoversSweep(t *testing.T) {
	cfg := config.PaperLOFTSpec(12)
	p := caseIPattern(cfg)
	aud := audit.New(audit.Config{})
	tables := regexp.MustCompile(`over (\d+) table\(s\)`)
	var snaps []audit.Snapshot
	var tableCounts []string
	for run := 0; run < 2; run++ {
		net, err := loft.New(cfg, p, loft.Options{Seed: 1, Audit: aud})
		if err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			aud.SetFlowBound(traffic.CaseStudyIVictim, 1)
		}
		aud.StartRun(1000)
		net.Run(1000)
		aud.FinishRun(net.Now())
		snaps = append(snaps, aud.Snapshot())
		tableCounts = append(tableCounts, tables.FindStringSubmatch(aud.Summary()[0])[1])
	}
	first, both := snaps[0], snaps[1]
	if first.Violations == 0 || first.WorstMarginPct <= 100 {
		t.Fatalf("first run: %d violations, worst at %.1f%% of bound; want a failure", first.Violations, first.WorstMarginPct)
	}
	if both.Violations != first.Violations {
		t.Fatalf("second run added %d violations; want it clean", both.Violations-first.Violations)
	}
	if both.WorstMarginPct != first.WorstMarginPct {
		t.Errorf("after both runs the worst case is at %.1f%% of bound, the first run's was %.1f%%", both.WorstMarginPct, first.WorstMarginPct)
	}
	var second uint64 // the per-flow rows are the last run's
	for _, f := range both.Flows {
		second += f.Packets
	}
	if second == 0 || both.PacketsChecked != first.PacketsChecked+second {
		t.Errorf("%d packets checked after both runs; the first checked %d and the second %d", both.PacketsChecked, first.PacketsChecked, second)
	}
	if n, _ := strconv.Atoi(tableCounts[0]); tableCounts[1] != strconv.Itoa(2*n) {
		t.Errorf("summary counts %s tables after both runs, %s after the first", tableCounts[1], tableCounts[0])
	}
}

// TestGSFTimelineInjectNode forces every Case Study I flow's bound low on a
// GSF run and checks that each reconstructed timeline starts at its flow's
// source: two of the three sources are not node 0.
func TestGSFTimelineInjectNode(t *testing.T) {
	lcfg := config.PaperLOFTSpec(12)
	p := caseIPattern(lcfg)
	aud := audit.New(audit.Config{MaxViolations: 256})
	net, err := gsf.New(config.PaperGSF(), p, gsf.Options{Seed: 1, BaseFrameFlits: lcfg.FrameFlits, Audit: aud})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range p.Flows {
		aud.SetFlowBound(f.ID, 1)
	}
	aud.StartRun(2000)
	net.Run(2000)
	aud.FinishRun(net.Now())
	net.Close()
	src := map[int32]int32{}
	for _, f := range p.Flows {
		src[int32(f.ID)] = int32(f.Src)
	}
	checked := map[int32]bool{}
	for _, v := range aud.Violations() {
		if v.Kind != "delay-bound-exceeded" {
			continue
		}
		if len(v.Timeline) == 0 || v.Timeline[0].Stage != "inject" {
			t.Fatalf("flow %d packet %d: timeline does not start with its injection: %+v", v.Flow, v.Packet, v.Timeline)
		}
		if got := v.Timeline[0].Node; got != src[v.Flow] {
			t.Fatalf("flow %d packet %d injected at node %d, want its source %d", v.Flow, v.Packet, got, src[v.Flow])
		}
		checked[v.Flow] = true
	}
	if len(checked) != len(p.Flows) {
		t.Fatalf("timelines checked for flows %v, want all %d", checked, len(p.Flows))
	}
}

// TestNilAuditorInert pins the zero-overhead contract: every method on a
// nil auditor must be a safe no-op.
func TestNilAuditorInert(t *testing.T) {
	var aud *audit.Auditor
	aud.StartRun(100)
	aud.OnCycle(50)
	aud.FinishRun(100)
	aud.RegisterCheck("x", func() error { return nil })
	aud.SetFlowBound(0, 1)
	aud.WatchTable(nil, nil)
	aud.Record(&probe.Record{})
	if aud.Kinds() != 0 {
		t.Fatal("nil auditor wants records")
	}
	if aud.Violations() != nil || aud.Err() != nil || aud.Summary() != nil {
		t.Fatal("nil auditor produced data")
	}
	cfg := config.PaperLOFTSpec(12)
	if _, _, err := core.RunLOFT(cfg, caseIPattern(cfg), core.RunSpec{Seed: 1, Warmup: 100, Measure: 400}); err != nil {
		t.Fatal(err)
	}
}
