package loft

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/probe"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// smallCfg returns a 4x4 LOFT configuration scaled down for unit tests but
// honoring all structural constraints (buffer >= frame, quantum multiples).
func smallCfg(spec int) config.LOFT {
	cfg := config.PaperLOFTSpec(spec)
	cfg.MeshK = 4
	cfg.FrameFlits = 32
	cfg.CentralBufFlits = 32
	return cfg
}

// hotspot is every node of cfg's mesh sending to the last one at rate.
func hotspot(t *testing.T, cfg config.LOFT, rate float64) *traffic.Pattern {
	t.Helper()
	m := cfg.Mesh()
	p, err := traffic.Hotspot(m, topo.NodeID(m.N()-1), rate, cfg.PacketFlits, cfg.FrameFlits, cfg.QuantumFlits, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustNet(t *testing.T, cfg config.LOFT, p *traffic.Pattern, seed uint64, warmup uint64) *Network {
	t.Helper()
	net, err := New(cfg, p, Options{Seed: seed, Warmup: warmup})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

var allocSink *Network

// TestNewAllocs pins the construction floor of a paper-configuration network
// at its measured count: a few arrays per node (its reservation tables and
// their storage, input-port candidate lists, credit-return buffers,
// look-ahead buffering, the NI and sink maps), one slab for the nodes, one
// for their input reservation entries and one per link-register kind, and
// the harness's slab of slots, which hold the traffic injectors. Names are
// formatted only when read, and registering the flows allocates nothing. A
// return to one entry pool per node adds 63 allocations and fails here.
func TestNewAllocs(t *testing.T) {
	if raceEnabled {
		// sync.Pool drops fmt's pooled printers at random under the race
		// detector, so the count does not repeat.
		t.Skip("allocation count not reproducible under -race")
	}
	cfg := config.PaperLOFT()
	p := traffic.Uniform(cfg.Mesh(), 0.6, cfg.PacketFlits, cfg.FrameFlits)
	n := testing.AllocsPerRun(5, func() {
		var err error
		if allocSink, err = New(cfg, p, Options{Seed: 1}); err != nil {
			panic(err)
		}
	})
	const limit = 818
	if n > limit {
		t.Errorf("loft.New: %.0f allocations, want at most %d", n, limit)
	}
}

// TestNewProbedAllocs prices the probe's gauges in New: a probed New makes
// at most a fixed number of allocations more than a bare one, on a 4×4 mesh
// and on the paper's 8×8 alike, because every kind of gauge is one family
// whose names are formatted only at export.
func TestNewProbedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count not reproducible under -race")
	}
	const limit = 32
	for _, cfg := range []config.LOFT{smallCfg(8), config.PaperLOFT()} {
		p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, cfg.FrameFlits)
		allocs := func(probed bool) float64 {
			return testing.AllocsPerRun(5, func() {
				var pr *probe.Probe
				if probed {
					pr = probe.New(probe.Config{EventCap: 1, SampleEvery: 256})
				}
				var err error
				if allocSink, err = New(cfg, p, Options{Seed: 1, Probe: pr}); err != nil {
					panic(err)
				}
			})
		}
		if extra := allocs(true) - allocs(false); extra > limit {
			t.Errorf("%d×%d mesh: a probed New makes %.0f allocations more than a bare one, want at most %d", cfg.MeshK, cfg.MeshK, extra, limit)
		}
	}
}

// TestNewAuditedAllocs prices the auditor in New: once an auditor has armed
// one paper-configuration network, arming the next costs at most a fixed
// number of allocations over a bare New, because the table taps and their
// shadow counters come from slabs the auditor keeps across runs and no
// table's name is formatted.
func TestNewAuditedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation count not reproducible under -race")
	}
	const limit = 16
	cfg := config.PaperLOFT()
	p := traffic.Uniform(cfg.Mesh(), 0.2, cfg.PacketFlits, cfg.FrameFlits)
	aud := audit.New(audit.Config{})
	allocs := func(aud *audit.Auditor) float64 {
		return testing.AllocsPerRun(5, func() {
			var err error
			if allocSink, err = New(cfg, p, Options{Seed: 1, Audit: aud}); err != nil {
				panic(err)
			}
		})
	}
	if extra := allocs(aud) - allocs(nil); extra > limit {
		t.Errorf("an audited New makes %.0f allocations more than a bare one, want at most %d", extra, limit)
	}
}

// TestNewRejectsFramesBelowQuantum checks that a frame of no whole quantum
// is a config error from New, never a panic. Frames of 0 and -256 flits are
// quantum multiples, so only the explicit bound in config.Validate stops
// them before a zero-slot table or the pattern's ΣR check.
func TestNewRejectsFramesBelowQuantum(t *testing.T) {
	for _, frame := range []int{0, -256, 1} {
		cfg := config.PaperLOFT()
		cfg.FrameFlits = frame
		p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, frame)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("frame %d: New panicked: %v", frame, r)
				}
			}()
			if _, err := New(cfg, p, Options{Seed: 1}); err == nil {
				t.Errorf("frame %d: New accepted the config", frame)
			} else if !strings.HasPrefix(err.Error(), "config: ") {
				t.Errorf("frame %d: New failed outside config validation: %v", frame, err)
			}
		}()
	}
}

// TestNewRejectsBadFlowIDs checks that a pattern whose flow ids are not
// 0..len(Flows)-1 is an error from New, with or without an auditor, never
// a panic from the first table indexed by flow id.
func TestNewRejectsBadFlowIDs(t *testing.T) {
	cfg := config.PaperLOFT()
	for _, aud := range []*audit.Auditor{nil, audit.New(audit.Config{})} {
		p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, cfg.FrameFlits)
		p.Flows[3].ID = -1
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("auditor %v: New panicked: %v", aud != nil, r)
				}
			}()
			if _, err := New(cfg, p, Options{Seed: 1, Audit: aud}); err == nil || !strings.HasPrefix(err.Error(), "traffic: flow 3 has id -1") {
				t.Errorf("auditor %v: New returned %v", aud != nil, err)
			}
		}()
	}
}

// TestPatternValidateAgreesWithNew checks that the pattern's ΣR check and
// New accept and reject the same patterns, with the same error: both count
// each reservation in quanta after the same round-up
// (traffic.ReservedQuanta).
func TestPatternValidateAgreesWithNew(t *testing.T) {
	uniform := func(_ *testing.T, c config.LOFT) *traffic.Pattern {
		return traffic.Uniform(c.Mesh(), 0.1, c.PacketFlits, c.FrameFlits)
	}
	for _, tc := range []struct {
		name    string
		cfg     func() config.LOFT
		pattern func(*testing.T, config.LOFT) *traffic.Pattern
		wantErr string // error prefix; "" when both accept
	}{
		{"paper-uniform", config.PaperLOFT, uniform, ""},
		{"small-uniform", func() config.LOFT { return smallCfg(12) }, uniform, ""},
		// Nine flows on every link reserve 28/9 = 3 flits each, 27 flits in
		// a 28-flit frame, but each rounds up to one 4-flit quantum: nine
		// quanta in a 7-slot frame.
		{"sub-quantum-uniform", func() config.LOFT {
			c := config.PaperLOFT()
			c.MeshK, c.QuantumFlits, c.FrameFlits, c.CentralBufFlits = 3, 4, 28, 28
			return c
		}, uniform, "traffic: ΣR=9 quanta exceeds frame size 7 quanta on link "},
		{"oversubscribed-hotspot", config.PaperLOFT, func(t *testing.T, c config.LOFT) *traffic.Pattern {
			p := hotspot(t, c, 0.1)
			p.Flows[0].Reservation = c.FrameFlits
			return p
		}, "traffic: ΣR="},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			if err := cfg.Validate(); err != nil {
				t.Fatalf("config: %v", err)
			}
			p := tc.pattern(t, cfg)
			validateErr := p.Validate(cfg.FrameFlits, cfg.QuantumFlits)
			_, newErr := New(cfg, p, Options{Seed: 1})
			if fmt.Sprint(validateErr) != fmt.Sprint(newErr) {
				t.Fatalf("Pattern.Validate: %v; New: %v", validateErr, newErr)
			}
			switch {
			case tc.wantErr == "" && validateErr != nil:
				t.Fatalf("rejected: %v", validateErr)
			case tc.wantErr != "" && (validateErr == nil || !strings.HasPrefix(validateErr.Error(), tc.wantErr)):
				t.Fatalf("error %v, want prefix %q", validateErr, tc.wantErr)
			}
		})
	}
}

func TestSingleFlowDelivers(t *testing.T) {
	cfg := smallCfg(12)
	p := traffic.SingleFlow(cfg.Mesh(), 0, 15, 0.1, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 1, 0)
	net.Run(5000)
	s := net.TotalStats()
	if s.EjectedFlits == 0 {
		t.Fatal("no flits delivered")
	}
	if s.LateArrivals != 0 {
		t.Fatalf("late arrivals: %d", s.LateArrivals)
	}
	if net.Latency().Count() == 0 {
		t.Fatal("no packet latencies recorded")
	}
	// 6-hop path at 0.1 flits/cycle: average latency must be moderate.
	if mean := net.Latency().Mean(); mean > 200 {
		t.Fatalf("mean latency %f too high for light load", mean)
	}
}

func TestConservationNoLossNoDuplication(t *testing.T) {
	cfg := smallCfg(8)
	p := traffic.NearestNeighbor(cfg.Mesh(), 0.2, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 7, 0)
	net.Run(4000)
	// Drain: stop injection by running with rate 0.
	p.SetRate(0)
	net.Run(4000)
	s := net.TotalStats()
	if s.InjectedQuanta == 0 {
		t.Fatal("nothing injected")
	}
	if s.EjectedQuanta != s.InjectedQuanta {
		t.Fatalf("conservation violated: injected %d quanta, ejected %d (backlog %d)",
			s.InjectedQuanta, s.EjectedQuanta, net.Backlog())
	}
}

func TestSpecZeroDisablesOptimizations(t *testing.T) {
	cfg := smallCfg(0)
	if cfg.SpeculativeSwitching() || cfg.LocalStatusReset() {
		t.Fatal("spec=0 must disable §4.3 optimizations")
	}
	p := traffic.SingleFlow(cfg.Mesh(), 0, 3, 0.05, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 3, 0)
	net.Run(6000)
	s := net.TotalStats()
	if s.EjectedFlits == 0 {
		t.Fatal("no flits delivered with optimizations off")
	}
	if s.SpecForwards != 0 {
		t.Fatalf("speculative forwards %d with speculation disabled", s.SpecForwards)
	}
	if net.ResetCount() != 0 {
		t.Fatalf("local resets %d with reset disabled", net.ResetCount())
	}
}

func TestSpeculationReducesLatency(t *testing.T) {
	mesh := topo.NewMesh(4)
	run := func(spec int) float64 {
		cfg := smallCfg(spec)
		p := traffic.SingleFlow(mesh, 0, 15, 0.05, cfg.PacketFlits, cfg.FrameFlits)
		net := mustNet(t, cfg, p, 11, 0)
		net.Run(8000)
		if net.Latency().Count() == 0 {
			t.Fatal("no packets delivered")
		}
		return net.Latency().Mean()
	}
	l0, l12 := run(0), run(12)
	if l12 >= l0 {
		t.Fatalf("speculation did not reduce latency: spec0=%.1f spec12=%.1f", l0, l12)
	}
}

func TestHotspotThroughputMatchesReservation(t *testing.T) {
	cfg := smallCfg(8)
	p := hotspot(t, cfg, 0.5)
	net := mustNet(t, cfg, p, 5, 4000)
	net.Run(20000)
	// 15 flows share the hotspot ejection link; all inject far above their
	// share, so each should converge near its guaranteed rate and the
	// ejection link should be nearly fully utilized.
	var total float64
	var rates []float64
	for _, f := range p.Flows {
		r := net.Throughput().Flow(f.ID)
		rates = append(rates, r)
		total += r
	}
	if total < 0.75 {
		t.Fatalf("hotspot ejection utilization %.3f, want > 0.75", total)
	}
	mean := total / float64(len(rates))
	for i, r := range rates {
		if math.Abs(r-mean) > 0.5*mean {
			t.Fatalf("flow %d rate %.4f deviates from mean %.4f beyond 50%%", i, r, mean)
		}
	}
}

func TestUniformDeliversUnderLoad(t *testing.T) {
	cfg := smallCfg(8)
	p := traffic.Uniform(cfg.Mesh(), 0.2, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 13, 2000)
	net.Run(10000)
	if net.Throughput().Total() < 0.2*float64(cfg.Mesh().N())*0.5 {
		t.Fatalf("uniform accepted throughput %.3f too low", net.Throughput().Total())
	}
	if s := net.TotalStats(); s.LateArrivals > s.EjectedQuanta/100 {
		t.Fatalf("late arrivals %d out of %d quanta", s.LateArrivals, s.EjectedQuanta)
	}
}

func TestPaperConfigRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full 8x8 paper configuration")
	}
	cfg := config.PaperLOFT()
	p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 42, 1000)
	net.Run(5000)
	if net.Throughput().TotalFlits() == 0 {
		t.Fatal("paper configuration delivered nothing")
	}
}

// TestVerifiedBookkeeping runs a contended workload with per-slot
// verification of the incremental LSF bookkeeping enabled on every table:
// lsf.Table.VerifyZero checks the credit steps and breakpoints, the O(1)
// last-zero tracking against a full scan, and the live-flow list.
func TestVerifiedBookkeeping(t *testing.T) {
	verifyLSF = true
	defer func() { verifyLSF = false }()
	cfg := smallCfg(8)
	p := hotspot(t, cfg, 0.5)
	net := mustNet(t, cfg, p, 21, 0)
	net.Run(6000)
	if net.Throughput().TotalFlits() == 0 {
		t.Fatal("nothing delivered under verification")
	}
}

// TestYieldConditionRuns exercises the optional condition-(1)-derived yield
// policy end to end: the network must stay live and deliver traffic.
func TestYieldConditionRuns(t *testing.T) {
	cfg := smallCfg(8)
	cfg.YieldCondition = true
	p := traffic.NearestNeighbor(cfg.Mesh(), 0.2, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 31, 0)
	net.Run(6000)
	if net.Throughput().TotalFlits() == 0 {
		t.Fatal("yield policy starved the network")
	}
}

// TestNIDropsUnderOverload verifies the bounded NI queue policy: a flow
// offering far beyond its share drops packets instead of queueing without
// bound, keeping measured latency finite.
func TestNIDropsUnderOverload(t *testing.T) {
	cfg := smallCfg(8)
	p := hotspot(t, cfg, 0.9)
	net := mustNet(t, cfg, p, 17, 1000)
	net.Run(10000)
	s := net.TotalStats()
	if s.Drops == 0 {
		t.Fatal("no drops at 0.9 offered into a saturated hotspot")
	}
	if net.Backlog() > cfg.Mesh().N()*cfg.NIQueueFlits/cfg.QuantumFlits {
		t.Fatalf("backlog %d exceeds the NI queue bound", net.Backlog())
	}
}

// TestPerFlowOrderWithinFlowAtSink checks packet reassembly: every packet
// completes exactly once with the right quantum count (no duplication).
func TestPacketReassemblyExactlyOnce(t *testing.T) {
	cfg := smallCfg(12)
	p := traffic.SingleFlow(cfg.Mesh(), 0, 15, 0.3, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 23, 0)
	net.Run(4000)
	p.SetRate(0)
	net.Run(4000)
	s := net.TotalStats()
	quantaPerPkt := uint64(cfg.PacketFlits / cfg.QuantumFlits)
	if s.EjectedQuanta%quantaPerPkt != 0 {
		t.Fatalf("ejected %d quanta not a whole number of packets", s.EjectedQuanta)
	}
	if got := net.Latency().Count(); got != s.EjectedQuanta/quantaPerPkt {
		t.Fatalf("completed packets %d != ejected quanta/2 = %d", got, s.EjectedQuanta/quantaPerPkt)
	}
}

// TestLocalResetsOnlyOnIdleLinks verifies the §4.3.2 trigger: a saturated
// single-flow path resets far less than an intermittent one.
func TestLocalResetsHelpIdleLinks(t *testing.T) {
	cfg := smallCfg(8)
	// Intermittent light flow: many resets expected.
	p1 := traffic.SingleFlow(cfg.Mesh(), 0, 3, 0.02, cfg.PacketFlits, cfg.FrameFlits)
	n1 := mustNet(t, cfg, p1, 3, 0)
	n1.Run(8000)
	if n1.ResetCount() == 0 {
		t.Fatal("no resets on an intermittent flow")
	}
	// The whole offered load is accepted: resets keep recycling the idle
	// links' frames so the flow never stalls on its window.
	if rate := n1.Throughput().Flow(0); rate < 0.015 {
		t.Fatalf("accepted rate %.4f, want ≈ offered 0.02", rate)
	}
}

// TestLivenessMixedTraffic runs a long mixed workload and asserts the
// network keeps making forward progress (no wedge: ejections strictly
// increase across every window).
func TestLivenessMixedTraffic(t *testing.T) {
	cfg := smallCfg(8)
	p := traffic.Transpose(cfg.Mesh(), 0.3, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 37, 0)
	last := uint64(0)
	for i := 0; i < 10; i++ {
		net.Run(2000)
		got := net.TotalStats().EjectedFlits
		if got <= last {
			t.Fatalf("no progress in window %d: ejected stuck at %d", i, got)
		}
		last = got
	}
}

// TestSpecBufferNeverOverflows drives heavy speculative forwarding and
// relies on the routers' internal overflow panics as the assertion.
func TestSpecBufferNeverOverflows(t *testing.T) {
	cfg := smallCfg(4) // tiny 2-quantum speculative buffers
	p := traffic.Uniform(cfg.Mesh(), 0.4, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 41, 0)
	net.Run(8000)
	if net.TotalStats().SpecForwards == 0 {
		t.Fatal("workload did not exercise speculative forwarding")
	}
}

// TestBurstAbsorption exercises the frame window's stated purpose: a bursty
// flow books multiple on-the-fly frames ahead (plus local resets between
// bursts) and delivers its bursts without loss at low average load.
func TestBurstAbsorption(t *testing.T) {
	cfg := smallCfg(12)
	p := traffic.Bursty(cfg.Mesh(), 0, 15, 40, 400, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 43, 0)
	net.Run(12000)
	p.Gens[0][0].Burst = 0 // stop generating
	p.Gens[0][0].Gap = 0
	net.Run(6000)
	s := net.TotalStats()
	if s.InjectedQuanta == 0 {
		t.Fatal("no bursts generated")
	}
	if s.Drops > 0 {
		t.Fatalf("%d packets dropped at ~14%% duty cycle", s.Drops)
	}
	if s.EjectedQuanta != s.InjectedQuanta {
		t.Fatalf("burst flits lost: injected %d, ejected %d", s.InjectedQuanta, s.EjectedQuanta)
	}
}

// TestTraceReplayThroughNetwork drives a replayed synthetic trace end to
// end: every trace packet must be delivered once the network drains.
func TestTraceReplayThroughNetwork(t *testing.T) {
	cfg := smallCfg(8)
	mesh := cfg.Mesh()
	events := traffic.SyntheticTrace(mesh, 80, 4000, cfg.PacketFlits, 9)
	p, err := traffic.FromTrace(mesh, events, cfg.PacketFlits, cfg.FrameFlits, cfg.QuantumFlits)
	if err != nil {
		t.Fatal(err)
	}
	net := mustNet(t, cfg, p, 1, 0)
	net.Run(12000)
	if got := net.Latency().Count(); got != uint64(len(events)) {
		t.Fatalf("delivered %d packets, trace has %d (backlog %d)", got, len(events), net.Backlog())
	}
}

// TestLinkUtilizationAccounting drives a single flow and checks the
// utilization accounting: the links on its path are busy at roughly the
// accepted rate, all others idle.
func TestLinkUtilizationAccounting(t *testing.T) {
	cfg := smallCfg(12)
	p := traffic.SingleFlow(cfg.Mesh(), 0, 3, 0.2, cfg.PacketFlits, cfg.FrameFlits)
	net := mustNet(t, cfg, p, 19, 0)
	net.Run(8000)
	util := net.LinkUtilization()
	rate := net.Throughput().Flow(0)
	onPath := map[topo.Link]bool{}
	for _, l := range []topo.Link{
		{From: 0, D: topo.East}, {From: 1, D: topo.East},
		{From: 2, D: topo.East}, {From: 3, D: topo.Local},
	} {
		onPath[l] = true
		if math.Abs(util[l]-rate) > 0.35*rate+0.01 {
			t.Fatalf("link %s utilization %.4f, want ≈ accepted rate %.4f", l, util[l], rate)
		}
	}
	for l, u := range util {
		if !onPath[l] && u != 0 {
			t.Fatalf("off-path link %s utilization %.4f", l, u)
		}
	}
	if net.Heatmap() == "" {
		t.Fatal("empty heatmap")
	}
}

// TestQuietPathRuns checks that the quiet path (Node.quietTick) carries
// nearly every node-cycle of a nearly idle network and almost none of a
// saturated one, so a quiet test that never fires fails here and not only in
// the benchmark.
func TestQuietPathRuns(t *testing.T) {
	cfg := config.PaperLOFT()
	m := cfg.Mesh()
	hot, err := traffic.Hotspot(m, topo.NodeID(m.N()-1), 0.001, cfg.PacketFlits, cfg.FrameFlits, cfg.QuantumFlits, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		p        *traffic.Pattern
		min, max float64
	}{
		{"hotspot-0.001", hot, 0.9, 1},
		{"uniform-0.6", traffic.Uniform(m, 0.6, cfg.PacketFlits, cfg.FrameFlits), 0, 0.05},
	} {
		net, err := New(cfg, c.p, Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		const cycles = 4000
		net.Run(cycles)
		var quiet uint64
		for _, n := range net.nodes {
			quiet += n.quietCycles
		}
		frac := float64(quiet) / float64(cycles*m.N())
		t.Logf("%s: %.1f%% of node-cycles quiet", c.name, 100*frac)
		if frac < c.min || frac >= c.max {
			t.Errorf("%s: %.3f of node-cycles quiet, want [%.2f, %.2f)", c.name, frac, c.min, c.max)
		}
	}
}
