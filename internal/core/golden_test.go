package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/gsf"
	"loft/internal/loft"
	"loft/internal/lsf"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// Stored-value goldens: every other determinism test in the repository
// compares two runs of the same binary, so a refactor that changes simulated
// behaviour consistently passes them all. These digests were recorded at the
// commit that introduced this file and pin the simulated outputs across
// commits. Regenerate with
//
//	go test ./internal/core -run TestGolden -update
//
// and say so in the PR description: a changed digest is a behaviour change.
var update = flag.Bool("update", false, "regenerate testdata/golden.json")

const goldenPath = "testdata/golden.json"

type goldenCase struct {
	name            string
	arch            Arch
	spec            int
	pattern         func(config.LOFT) *traffic.Pattern
	warmup, measure uint64
	// tweak, when set, edits the paper configuration before the pattern is
	// built from it.
	tweak func(*config.LOFT)
	// gsf, when set, is the configuration a GSF row runs instead of
	// config.PaperGSF.
	gsf func() config.GSF
}

func uniform(rate float64) func(config.LOFT) *traffic.Pattern {
	return func(c config.LOFT) *traffic.Pattern {
		return traffic.Uniform(c.Mesh(), rate, c.PacketFlits, c.FrameFlits)
	}
}

func caseI(c config.LOFT) *traffic.Pattern {
	return traffic.CaseStudyI(c.Mesh(), 0.2, 0.6, c.PacketFlits, c.FrameFlits)
}

func hotspot(rate float64) func(config.LOFT) *traffic.Pattern {
	return func(c config.LOFT) *traffic.Pattern {
		m := c.Mesh()
		p, err := traffic.Hotspot(m, topo.NodeID(m.N()-1), rate, c.PacketFlits, c.FrameFlits, c.QuantumFlits, nil)
		if err != nil {
			panic(err) // every golden configuration admits the pattern
		}
		return p
	}
}

// mixedTrace replays packets of 1 to 5 flits to random destinations. Every
// 100 cycles six sources each receive a burst of 24 packets within three
// cycles, about 72 flits, and a source injects at most one flit per cycle,
// so their queues back up for tens of cycles. The last burst comes five
// cycles before the row's horizon, so queues still hold packets when the
// run ends. Quanta of one flit admit every packet size. Replay draws no
// random numbers, so both seeds run the same packets.
func mixedTrace(c config.LOFT) *traffic.Pattern {
	m := c.Mesh()
	rng := sim.NewRNG(sim.SeedFor(5, 0))
	var events []traffic.TraceEvent
	for cycle := uint64(95); cycle < 1500; cycle += 100 {
		for b := 0; b < 6; b++ {
			src := topo.NodeID(rng.Intn(m.N()))
			for i := 0; i < 24; i++ {
				dst := src
				for dst == src {
					dst = topo.NodeID(rng.Intn(m.N()))
				}
				events = append(events, traffic.TraceEvent{Cycle: cycle + uint64(i%3), Src: src, Dst: dst, Flits: 1 + rng.Intn(5)})
			}
		}
	}
	p, err := traffic.FromTrace(m, events, c.PacketFlits, c.FrameFlits, 1)
	if err != nil {
		panic(err) // the trace is admissible on the paper's mesh
	}
	return p
}

// goldenCases cover both architectures at light load and past saturation,
// the hotspot and case-study patterns and the optimizations-off LOFT (which
// delivers only its reserved 1/64 share, hence the low rate). The saturated
// and the GSF rows run half as long: they cost several times as much per
// cycle.
//
// Two rows leave the paper's table shape, whose 256-slot window is a whole
// number of 64-slot words with the frame edge on a word boundary. With
// F = 300 flits the window is 300 slots and the frame edge sits at ring
// index 150 = 2·64+22. With WF = 3 and no local reset (spec 0) the ring
// wraps through three frames. (Uniform traffic at 0.3 or 0.6 with F = 300
// hashes like the paper configuration, so Case Study I carries that row.)
//
// Two GSF rows leave the paper's router. The wormhole row tags every flit
// with frame 0, so scan order alone decides each arbitration. The two-VC row
// runs out of free downstream VCs and sizes the per-node VC storage away
// from 6×5.
//
// Two more GSF rows pin the source queue. A 42-flit queue is no multiple of
// the 4-flit packet, so uniform traffic at 0.6 drops packets while one to
// three flits are still free. A trace of 1- to 5-flit packets backs its
// queues up behind bursts, and with a 50-flit queue drops packets of every
// size. Every GSF row also pins each node's source-queue flits and drops at
// the end of the run as <row>/srcq.
//
// Two LOFT rows leave the paper's look-ahead router (3 VCs × 4 flits, 3
// stages). With one 2-flit VC per input the look-ahead buffers fill: the NI
// finds no local space to book into and outputs run out of downstream
// look-ahead credits. With four 1-flit VCs and one stage, ties in the
// shortest-VC choice are the rule and a flit may arbitrate in the cycle it
// arrives.
//
// One LOFT row pins link timing. With one-flit quanta every cycle is a slot
// boundary, and with a one-stage look-ahead router a booking lands early
// enough that a quantum can leave the cycle after it arrives. The paper's
// two-flit quanta and three look-ahead stages hide one extra cycle on the
// NI-to-router data register and on the buffer-credit return; this row does
// not, so delaying any one LOFT register kind by a cycle changes its digest.
//
// One LOFT row drives reservation tables to zero virtual credit. Every other
// row keeps each table's credits several quanta above zero, so none of them
// exercises the safety threshold (book only after the last zero-credit slot)
// or its rescan when a credit return lifts that slot. Hotspot traffic at 0.1
// without speculative buffering overloads the hotspot's links: about one
// booking in ten leaves a zero-credit slot behind it.
//
// Three rows run nearly idle: hotspot traffic at 0.002, long enough that a
// node's quiet stretches span many frame windows (WT = 256 slots, 512
// cycles). With local status resets (spec 12) a table is often reset-due
// when its node falls quiet; without them (spec 0) dirty tables carry live
// flows across frame edge after frame edge. Every LOFT row also pins the
// end-of-run state of every reservation table as <row>/tables.
var goldenCases = []goldenCase{
	{"loft-uniform-0.05", ArchLOFT, 12, uniform(0.05), 500, 2500, nil, nil},
	{"loft-uniform-0.6", ArchLOFT, 12, uniform(0.6), 300, 1200, nil, nil},
	{"loft-hotspot", ArchLOFT, 12, hotspot(0.015), 500, 2500, nil, nil},
	{"loft-case1", ArchLOFT, 12, caseI, 500, 2500, nil, nil},
	{"loft-spec0-uniform-0.012", ArchLOFT, 0, uniform(0.012), 500, 2500, nil, nil},
	{"gsf-uniform-0.6", ArchGSF, 12, uniform(0.6), 300, 1200, nil, nil},
	{"gsf-case1", ArchGSF, 12, caseI, 300, 1200, nil, nil},
	{"loft-case1-f300", ArchLOFT, 12, caseI, 500, 2500, func(c *config.LOFT) { c.FrameFlits, c.CentralBufFlits = 300, 300 }, nil},
	{"loft-spec0-wf3", ArchLOFT, 0, uniform(0.05), 500, 2500, func(c *config.LOFT) { c.FrameWindow = 3 }, nil},
	{"gsf-wormhole-0.3", ArchGSF, 12, uniform(0.3), 300, 1200, nil, config.PaperWormhole},
	{"gsf-vc2-0.6", ArchGSF, 12, uniform(0.6), 300, 1200, nil, func() config.GSF {
		c := config.PaperGSF()
		c.VirtualChannels, c.VCDepth = 2, 3
		return c
	}},
	{"loft-la1x2-0.6", ArchLOFT, 12, uniform(0.6), 300, 1200, func(c *config.LOFT) { c.LAVirtualChannels, c.LAVCDepth = 1, 2 }, nil},
	{"loft-la4x1-s1-0.3", ArchLOFT, 12, uniform(0.3), 300, 1200, func(c *config.LOFT) { c.LAVirtualChannels, c.LAVCDepth, c.LAStages = 4, 1, 1 }, nil},
	{"loft-q1-s1-0.3", ArchLOFT, 12, uniform(0.3), 300, 1200, func(c *config.LOFT) { c.QuantumFlits, c.LAStages = 1, 1 }, nil},
	{"loft-spec0-hotspot-0.1", ArchLOFT, 0, hotspot(0.1), 500, 3000, nil, nil},
	{"loft-hotspot-0.002", ArchLOFT, 12, hotspot(0.002), 500, 6000, nil, nil},
	{"loft-spec0-hotspot-0.002", ArchLOFT, 0, hotspot(0.002), 500, 6000, nil, nil},
	{"gsf-hotspot-0.002", ArchGSF, 12, hotspot(0.002), 500, 6000, nil, nil},
	{"gsf-srcq42-0.6", ArchGSF, 12, uniform(0.6), 300, 1200, nil, func() config.GSF {
		c := config.PaperGSF()
		c.SourceQueue = 42
		return c
	}},
	{"gsf-trace-mixed", ArchGSF, 12, mixedTrace, 300, 1200, nil, func() config.GSF {
		c := config.PaperGSF()
		c.SourceQueue = 50
		return c
	}},
}

// nearlyIdleRows also run under four workers: their nodes spend most cycles
// on the quiet path, reading their neighbours' link activity stamps, and
// four shards put more of those reads across a shard boundary.
var nearlyIdleRows = map[string]bool{"loft-hotspot-0.002": true, "loft-spec0-hotspot-0.002": true, "gsf-hotspot-0.002": true}

// goldenChaosPlan arms every fault kind inside the observed run's horizon.
const goldenChaosPlan = `
link-down    node=7  dir=south from=300 to=400
flit-loss    node=3  dir=east  rate=0.4 from=250 to=1200
credit-stall node=15 dir=west  from=500 to=560
router-stall node=9  from=600 to=608
adversary    flow=1  factor=3 cap=1 from=400
`

// goldenNIChaosPlan faults the links at the two ends of a node's datapath:
// the NI's injection link loses and drops transmissions, and the sink holds
// back the ejection table's credits. goldenChaosPlan faults only mesh links.
const goldenNIChaosPlan = `
link-down    node=5  dir=inject from=300 to=400
flit-loss    node=6  dir=inject rate=0.5 from=250 to=1200
credit-stall node=12 dir=eject  from=500 to=560
`

// rowState is a row's end-of-run state beyond its counters, stored as
// <row>/<key>: every reservation table of a LOFT network ("tables"), every
// source queue of a GSF network ("srcq").
type rowState struct {
	key string
	v   any
}

// runAny runs either architecture the way every CLI does and returns the
// result plus the architecture's own end-of-run counters and end-of-run
// state. A GSF run uses gcfg; its reservations are scaled from lcfg's frame.
func runAny(arch Arch, lcfg config.LOFT, gcfg config.GSF, p *traffic.Pattern, spec RunSpec) (Result, any, rowState, error) {
	if arch == ArchGSF {
		res, net, err := RunGSF(gcfg, p, lcfg.FrameFlits, spec)
		if err != nil {
			return res, nil, rowState{}, err
		}
		return res, gsfCounters(net), rowState{"srcq", srcqStates(net, gcfg)}, nil
	}
	res, net, err := RunLOFT(lcfg, p, spec)
	if err != nil {
		return res, nil, rowState{}, err
	}
	return res, loftCounters(net), rowState{"tables", tableStates(net, lcfg, p)}, nil
}

// srcqStates reads, node by node, the flits each source queue holds and the
// packets it dropped.
func srcqStates(net *gsf.Network, gcfg config.GSF) [][2]uint64 {
	out := make([][2]uint64, gcfg.Mesh().N())
	for i := range out {
		flits, drops := net.SourceQueue(topo.NodeID(i))
		out[i] = [2]uint64{uint64(flits), drops}
	}
	return out
}

// tableState is what a <row>/tables digest covers of one reservation table:
// its clock, its credit window, its skipped counters and the (IF, C, R) of
// every flow registered on it. A table whose time lagged behind the network
// after Run would show here even when every counter agrees.
type tableState struct {
	Name     string
	Now      uint64
	HF       int
	Version  uint64
	Credits  []int
	Skipped  []int
	FlowIFCR [][4]int
}

// tableStates reads every table of every node, injection and ejection links
// included, in node and port order.
func tableStates(net *loft.Network, lcfg config.LOFT, p *traffic.Pattern) []tableState {
	var out []tableState
	for i := 0; i < lcfg.Mesh().N(); i++ {
		for d := topo.Dir(0); d <= topo.NumDirs; d++ {
			t := net.Node(topo.NodeID(i)).Table(d)
			if t == nil {
				continue
			}
			st := tableState{Name: t.Name(), Now: t.NowSlot(), HF: t.HeadFrame(), Version: t.Version(), Credits: t.AppendCredits(nil)}
			for f := 0; f < lcfg.FrameWindow; f++ {
				st.Skipped = append(st.Skipped, t.Skipped(f))
			}
			for _, fl := range p.Flows {
				if ifr, c, r, ok := t.FlowState(fl.ID); ok {
					st.FlowIFCR = append(st.FlowIFCR, [4]int{int(fl.ID), ifr, c, r})
				}
			}
			out = append(out, st)
		}
	}
	return out
}

func loftCounters(net *loft.Network) any {
	out, inj := net.SchedulerTotals()
	return struct {
		Total    loft.NodeStats
		Out, Inj lsf.Stats
		Resets   uint64
	}{net.TotalStats(), out, inj, net.ResetCount()}
}

func gsfCounters(net *gsf.Network) any {
	return struct {
		Drops          uint64
		Head, InFlight int
	}{net.Drops(), net.Head(), net.InFlight()}
}

// digest hashes the canonical JSON of v: encoding/json emits struct fields
// in declaration order and map keys sorted, so the bytes are stable.
func digest(t *testing.T, v any) string {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return sum(blob)
}

func sum(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// goldenStore is testdata/golden.json: digest by key. Every check also
// records what it saw, so -update rewrites the whole file from one run.
type goldenStore struct {
	want map[string]string
	mu   sync.Mutex
	got  map[string]string
}

func loadGolden(t *testing.T) *goldenStore {
	t.Helper()
	g := &goldenStore{want: map[string]string{}, got: map[string]string{}}
	blob, err := os.ReadFile(goldenPath)
	if err != nil {
		if *update && os.IsNotExist(err) {
			return g
		}
		t.Fatal(err)
	}
	if err := json.Unmarshal(blob, &g.want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	return g
}

// check compares one digest with the stored one (or records it under
// -update).
func (g *goldenStore) check(t *testing.T, key, got string) {
	t.Helper()
	g.mu.Lock()
	defer g.mu.Unlock()
	if prev, dup := g.got[key]; dup && prev != got {
		t.Errorf("%s: two runs of the same case disagree: %s vs %s", key, prev, got)
	}
	g.got[key] = got
	if *update {
		return
	}
	want, ok := g.want[key]
	if !ok {
		t.Errorf("%s: no stored digest; run with -update and review the change", key)
	} else if want != got {
		t.Errorf("%s: digest %s, stored %s — simulated behaviour changed", key, got, want)
	}
}

func (g *goldenStore) save(t *testing.T) {
	t.Helper()
	if !*update {
		for key := range g.want {
			if _, ran := g.got[key]; !ran {
				t.Errorf("%s: stored digest has no test case; run with -update", key)
			}
		}
		return
	}
	blob, err := json.MarshalIndent(g.got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(blob, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestGolden pins the simulated outputs of both architectures by stored
// digest, under the sequential and the sharded engine alike.
func TestGolden(t *testing.T) {
	g := loadGolden(t)
	// The group returns once its parallel subtests have all finished.
	t.Run("runs", func(t *testing.T) {
		for _, c := range goldenCases {
			workerCounts := []int{1, 2}
			if nearlyIdleRows[c.name] {
				workerCounts = append(workerCounts, 4)
			}
			for _, seed := range []uint64{1, 2} {
				for _, workers := range workerCounts {
					t.Run(fmt.Sprintf("%s/seed%d/workers%d", c.name, seed, workers), func(t *testing.T) {
						t.Parallel()
						lcfg := config.PaperLOFTSpec(c.spec)
						if c.tweak != nil {
							c.tweak(&lcfg)
						}
						gcfg := config.PaperGSF()
						if c.gsf != nil {
							gcfg = c.gsf()
						}
						res, counters, state, err := runAny(c.arch, lcfg, gcfg, c.pattern(lcfg), RunSpec{Seed: seed, Warmup: c.warmup, Measure: c.measure, Workers: workers})
						if err != nil {
							t.Fatal(err)
						}
						if res.Packets == 0 {
							t.Fatal("no packets measured")
						}
						key := fmt.Sprintf("%s/seed%d", c.name, seed)
						g.check(t, key, digest(t, runDigest{res, counters}))
						g.check(t, key+"/"+state.key, digest(t, state.v))
					})
				}
			}
		}
		goldenObserved(t, g)
	})
	g.save(t)
}

// runDigest is what one run's digest covers.
type runDigest struct {
	Result   Result
	Counters any
}

// observedCase is one run whose observer artifacts are pinned. prepare, when
// set, runs on the freshly built network (and the auditor armed for it)
// before the first cycle; a GSF case gets a nil LOFT network.
type observedCase struct {
	name    string
	arch    Arch
	pattern func(config.LOFT) *traffic.Pattern
	plan    string // fault plan text, "" for an unfaulted run
	// maxViolations sizes the retained violation log (0: the default 32).
	maxViolations int
	// alone reruns the case with only the auditor and with only the probe
	// attached: each observer's artifact must equal the both-on digest.
	alone bool
	// perf reruns the case with both observers and a self-profiler sampling
	// every cycle: profiling must not change any artifact, and the profiler
	// must have recorded stage timings (and, sharded, engine telemetry).
	perf    bool
	prepare func(*loft.Network, *audit.Auditor)
	// want checks the run exercised what the row exists to pin.
	want func(*testing.T, Result, audit.Snapshot)
}

// corruptEveryTable arms f on every reservation table of the network, so the
// fault's trigger (frame abandonment, credit return) occurs within the short
// observed horizon.
func corruptEveryTable(f lsf.Fault) func(*loft.Network, *audit.Auditor) {
	return func(net *loft.Network, _ *audit.Auditor) {
		for i := 0; i < config.PaperLOFT().Mesh().N(); i++ {
			for d := topo.Dir(0); d <= topo.NumDirs; d++ {
				net.Node(topo.NodeID(i)).InjectTableFault(d, f)
			}
		}
	}
}

func wantViolation(kind string, timeline bool) func(*testing.T, Result, audit.Snapshot) {
	return func(t *testing.T, _ Result, s audit.Snapshot) {
		for _, v := range s.ViolationLog {
			if v.Kind == kind && (!timeline || len(v.Timeline) > 0) {
				return
			}
		}
		t.Fatalf("no %s violation (timeline wanted: %v) among %d logged", kind, timeline, len(s.ViolationLog))
	}
}

// observedCases: a clean and a chaotic LOFT run; a LOFT run whose faults
// sit on the injection and ejection links; a GSF run, whose events
// (gsf-throttle, gsf-frame-roll) and recorder path (head-flit injection,
// packet completion, the frame-count check) differ from LOFT's — past
// saturation, because Case Study I never throttles a GSF source within this
// horizon, so its event stream would not show node order; a LOFT run
// with one flow's delay bound forced low, which pins reconstructed hop
// timelines; a GSF run with every flow's bound forced low, which pins GSF
// timelines (each packet's head-flit injection) over a whole run of packets
// whose flight records are recycled; and a LOFT run on corrupted tables with every bound forced low,
// where a node's invariant-tap violations and its flight-recorder verdicts
// land in the same cycle — the violation log is the only place their
// relative replay order shows. A node's packet completion (switch pass)
// always precedes its taps (booking, look-ahead) within a cycle, and the
// first shared node-cycle is violation 148, hence the longer log. A second
// corrupted run leaks every returned credit, which the conservation check
// on the next grant must catch.
var observedCases = []observedCase{
	{name: "clean", arch: ArchLOFT, pattern: uniform(0.1), alone: true, perf: true},
	{name: "chaos", arch: ArchLOFT, pattern: uniform(0.1), plan: goldenChaosPlan, alone: true, perf: true,
		want: func(t *testing.T, res Result, _ audit.Snapshot) {
			if res.FaultsInjected == 0 || res.FlitsLost == 0 || res.Retries == 0 {
				t.Fatalf("chaos run: %d faults, %d flits lost, %d retries; want all > 0", res.FaultsInjected, res.FlitsLost, res.Retries)
			}
		}},
	{name: "chaos-ni", arch: ArchLOFT, pattern: uniform(0.1), plan: goldenNIChaosPlan,
		want: func(t *testing.T, res Result, _ audit.Snapshot) {
			if res.FaultsInjected == 0 || res.Retries == 0 {
				t.Fatalf("NI chaos run: %d faults, %d retries; want both > 0", res.FaultsInjected, res.Retries)
			}
		}},
	{name: "gsf", arch: ArchGSF, pattern: uniform(0.6), perf: true,
		want: func(t *testing.T, _ Result, s audit.Snapshot) {
			if s.PacketsChecked == 0 || s.QuantaInjected == 0 {
				t.Fatalf("GSF recorder saw no packets: %+v", s)
			}
		}},
	{name: "bound", arch: ArchLOFT, pattern: caseI,
		prepare: func(_ *loft.Network, aud *audit.Auditor) { aud.SetFlowBound(traffic.CaseStudyIVictim, 60) },
		want:    wantViolation("delay-bound-exceeded", true)},
	{name: "gsf-bound", arch: ArchGSF, pattern: uniform(0.2),
		prepare: func(_ *loft.Network, aud *audit.Auditor) {
			for f := 0; f < config.PaperLOFT().Mesh().N(); f++ {
				aud.SetFlowBound(flit.FlowID(f), 45)
			}
		},
		want: wantViolation("delay-bound-exceeded", true)},
	{name: "corrupt", arch: ArchLOFT, pattern: uniform(0.2), maxViolations: 512,
		prepare: func(net *loft.Network, aud *audit.Auditor) {
			corruptEveryTable(lsf.FaultDropSkipped)(net, aud)
			for f := 0; f < config.PaperLOFT().Mesh().N(); f++ {
				aud.SetFlowBound(flit.FlowID(f), 30)
			}
		},
		want: func(t *testing.T, res Result, s audit.Snapshot) {
			wantViolation("skipped-accounting", false)(t, res, s)
			wantViolation("delay-bound-exceeded", true)(t, res, s)
		}},
	{name: "corrupt-leak", arch: ArchLOFT, pattern: uniform(0.2),
		prepare: corruptEveryTable(lsf.FaultLeakCredit),
		want:    wantViolation("credit-conservation", false)},
}

// runObserved builds c's network the way RunLOFT/RunGSF do, applies the
// case's preparation and runs it.
func runObserved(c observedCase, lcfg config.LOFT, spec RunSpec) (Result, any, error) {
	p := c.pattern(lcfg)
	if c.prepare == nil {
		res, counters, _, err := runAny(c.arch, lcfg, config.PaperGSF(), p, spec)
		return res, counters, err
	}
	if c.arch == ArchGSF {
		net, err := gsf.New(config.PaperGSF(), p, gsf.Options{Seed: spec.Seed, Warmup: spec.Warmup, BaseFrameFlits: lcfg.FrameFlits, Probe: spec.Probe, Audit: spec.Audit, Workers: spec.Workers, Perf: spec.Perf, Fault: spec.Fault})
		if err != nil {
			return Result{}, nil, err
		}
		c.prepare(nil, spec.Audit)
		res := run(ArchGSF, net.Harness, p, spec)
		res.Drops = net.Drops()
		return res, gsfCounters(net), nil
	}
	net, err := loft.New(lcfg, p, loft.Options{Seed: spec.Seed, Warmup: spec.Warmup, Probe: spec.Probe, Audit: spec.Audit, Workers: spec.Workers, Perf: spec.Perf, Fault: spec.Fault})
	if err != nil {
		return Result{}, nil, err
	}
	c.prepare(net, spec.Audit)
	return run(ArchLOFT, net.Harness, p, spec), loftCounters(net), nil
}

// goldenObserved pins the observer artifacts of the observedCases: the probe
// event stream as events.jsonl carries it, the sampled gauges as series.csv
// carries them, and the full audit snapshot (violation log and timelines
// included) as audit.json carries it. Replay order at the cycle barrier is
// visible only here — the result summary is order-insensitive. Every row
// runs under one, two and four workers against the same stored digests, so
// sharding must not change a byte. Rows marked alone also run with one
// observer at a time: what an observer records must not depend on which
// others are attached. Rows marked perf also run with the self-profiler
// attached.
func goldenObserved(t *testing.T, g *goldenStore) {
	for _, c := range observedCases {
		observers := []string{"both"}
		if c.alone {
			observers = append(observers, "audit", "probe")
		}
		if c.perf {
			observers = append(observers, "perf")
		}
		for _, workers := range []int{1, 2, 4} {
			for _, obs := range observers {
				name := fmt.Sprintf("observed-%s/workers%d", c.name, workers)
				switch obs {
				case "audit", "probe":
					name += "/" + obs + "-only"
				case "perf":
					name += "/perf"
				}
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					var plan *fault.Plan
					if c.plan != "" {
						var err error
						if plan, err = fault.Parse(c.plan); err != nil {
							t.Fatal(err)
						}
					}
					lcfg := config.PaperLOFT()
					var pr *probe.Probe
					var aud *audit.Auditor
					if obs != "audit" {
						pr = probe.New(probe.Config{SampleEvery: 256})
					}
					if obs != "probe" {
						aud = audit.New(audit.Config{MaxViolations: c.maxViolations})
					}
					var mon *perfmon.Monitor
					if obs == "perf" {
						mon = perfmon.New(perfmon.Config{SampleEvery: 1})
					}
					res, counters, err := runObserved(c, lcfg, RunSpec{Seed: 1, Warmup: 200, Measure: 1300, Probe: pr, Audit: aud, Workers: workers, Perf: mon, Fault: plan})
					if err != nil {
						t.Fatal(err)
					}
					if c.want != nil {
						c.want(t, res, aud.Snapshot())
					}
					if mon != nil {
						snap := mon.Snapshot()
						if snap.SampledCycles == 0 || len(snap.Stages) == 0 {
							t.Errorf("profiler attached but collected nothing: %+v", snap)
						}
						if workers > 1 && snap.Engine == nil {
							t.Errorf("workers=%d: no parallel-engine telemetry", workers)
						}
					}
					key := "observed-" + c.name
					g.check(t, key+"/result", digest(t, runDigest{res, counters}))
					if pr != nil {
						events := sha256.New()
						if err := probe.WriteEventsJSONL(events, pr.Events(), pr.Tracer().Dropped()); err != nil {
							t.Fatal(err)
						}
						g.check(t, key+"/events.jsonl", hex.EncodeToString(events.Sum(nil)))
						series := sha256.New()
						if err := probe.WriteSeriesCSV(series, pr.Series()); err != nil {
							t.Fatal(err)
						}
						g.check(t, key+"/series.csv", hex.EncodeToString(series.Sum(nil)))
					}
					if aud != nil {
						snap, err := json.MarshalIndent(aud.Snapshot(), "", "  ")
						if err != nil {
							t.Fatal(err)
						}
						g.check(t, key+"/audit.json", sum(append(snap, '\n')))
					}
				})
			}
		}
	}
}

// TestCloseThenRunRestarts pins the one Close contract both architectures
// inherit from the harness: Close releases the engine's worker pool and a
// later Run restarts it, so Run(a); Close(); Run(b) is Run(a+b) — under the
// sequential engine, where Close has nothing to release, and the sharded one.
func TestCloseThenRunRestarts(t *testing.T) {
	const a, b = 400, 600
	lcfg := config.PaperLOFT()
	type network interface {
		Run(n uint64)
		Close()
		Now() uint64
	}
	for _, arch := range []Arch{ArchLOFT, ArchGSF} {
		for _, workers := range []int{1, 2} {
			// build returns a fresh network and a digest of everything it has
			// counted so far.
			build := func() (network, func() string) {
				p := uniform(0.2)(lcfg)
				if arch == ArchGSF {
					net, err := gsf.New(config.PaperGSF(), p, gsf.Options{Seed: 3, Warmup: 200, BaseFrameFlits: lcfg.FrameFlits, Workers: workers})
					if err != nil {
						t.Fatal(err)
					}
					return net, func() string { return digest(t, runDigest{run(arch, net.Harness, p, RunSpec{}), gsfCounters(net)}) }
				}
				net, err := loft.New(lcfg, p, loft.Options{Seed: 3, Warmup: 200, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				return net, func() string { return digest(t, runDigest{run(arch, net.Harness, p, RunSpec{}), loftCounters(net)}) }
			}
			whole, wholeDigest := build()
			whole.Run(a + b)
			split, splitDigest := build()
			split.Run(a)
			split.Close()
			split.Close() // idempotent
			split.Run(b)
			if split.Now() != a+b {
				t.Fatalf("%s workers %d: split run stands at cycle %d, want %d", arch, workers, split.Now(), a+b)
			}
			// The digests summarize through run with an empty spec: zero more
			// cycles, then Close — which both networks must also survive.
			if w, s := wholeDigest(), splitDigest(); w != s {
				t.Errorf("%s workers %d: Run(%d); Close(); Run(%d) digests %s, Run(%d) digests %s", arch, workers, a, b, s, a+b, w)
			}
		}
	}
}
