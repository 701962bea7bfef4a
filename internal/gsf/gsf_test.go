package gsf

import (
	"fmt"
	"strings"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/probe"
	"loft/internal/topo"
	"loft/internal/traffic"
)

func smallGSF() config.GSF {
	cfg := config.PaperGSF()
	cfg.MeshK = 4
	cfg.FrameFlits = 200
	cfg.SourceQueue = 200
	return cfg
}

// hotspot is every node of cfg's mesh sending to the last one at rate, its
// reservations set against a 32-flit frame of 2-flit quanta.
func hotspot(t *testing.T, cfg config.GSF, rate float64) *traffic.Pattern {
	t.Helper()
	m := cfg.Mesh()
	p, err := traffic.Hotspot(m, topo.NodeID(m.N()-1), rate, cfg.PacketFlits, 32, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustNet(t *testing.T, cfg config.GSF, p *traffic.Pattern, seed, warmup uint64) *Network {
	t.Helper()
	net, err := New(cfg, p, Options{Seed: seed, Warmup: warmup, BaseFrameFlits: 32})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

var allocSink *Network

// TestNewRejectsBadFlowIDs checks that a pattern whose flow ids are not
// 0..len(Flows)-1 is an error from New, with or without an auditor, never
// a panic from the first table indexed by flow id.
func TestNewRejectsBadFlowIDs(t *testing.T) {
	cfg := config.PaperGSF()
	for _, aud := range []*audit.Auditor{nil, audit.New(audit.Config{})} {
		p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, 256)
		p.Flows[3].ID = -1
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("auditor %v: New panicked: %v", aud != nil, r)
				}
			}()
			if _, err := New(cfg, p, Options{Seed: 1, BaseFrameFlits: 256, Audit: aud}); err == nil || !strings.HasPrefix(err.Error(), "traffic: flow 3 has id -1") {
				t.Errorf("auditor %v: New returned %v", aud != nil, err)
			}
		}()
	}
}

// TestNewAllocs pins the construction floor of a paper-configuration network
// at its measured count. gsf.New takes each kind of node state from one
// slab: the nodes, their input VCs, the VCs' FIFO rings, the VC bit sets,
// the source queues' packet rings, the nodes' frame-census shares, the
// flows' metering state, and per link the output ports, their downstream VC
// states and the two register kinds. Names are formatted only when read.
// That is 25 allocations; the harness makes the other 16, among them one
// slab of slots holding the traffic injectors and one each of the
// injectors' sequence numbers and burst states.
func TestNewAllocs(t *testing.T) {
	if raceEnabled {
		// sync.Pool drops fmt's pooled printers at random under the race
		// detector, so the count does not repeat.
		t.Skip("allocation count not reproducible under -race")
	}
	cfg := config.PaperGSF()
	p := traffic.Uniform(cfg.Mesh(), 0.6, cfg.PacketFlits, 256)
	n := testing.AllocsPerRun(5, func() {
		var err error
		if allocSink, err = New(cfg, p, Options{Seed: 1, BaseFrameFlits: 256}); err != nil {
			panic(err)
		}
	})
	const limit = 41
	if n > limit {
		t.Errorf("gsf.New: %.0f allocations, want at most %d", n, limit)
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
	const limit = 18
	for _, cfg := range []config.GSF{smallGSF(), config.PaperGSF()} {
		p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, 256)
		allocs := func(probed bool) float64 {
			return testing.AllocsPerRun(5, func() {
				var pr *probe.Probe
				if probed {
					pr = probe.New(probe.Config{EventCap: 1, SampleEvery: 256})
				}
				var err error
				if allocSink, err = New(cfg, p, Options{Seed: 1, BaseFrameFlits: 256, Probe: pr}); err != nil {
					panic(err)
				}
			})
		}
		if extra := allocs(true) - allocs(false); extra > limit {
			t.Errorf("%d×%d mesh: a probed New makes %.0f allocations more than a bare one, want at most %d", cfg.MeshK, cfg.MeshK, extra, limit)
		}
	}
}

// TestComponentNames checks the name every VC FIFO, source queue and link
// register of a 3×3 network reads. Names are labels, formatted only when a
// panic reads them, so nothing else would notice a wrong one.
func TestComponentNames(t *testing.T) {
	cfg := smallGSF()
	cfg.MeshK = 3
	net := mustNet(t, cfg, traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, 32), 1, 0)
	check := func(got, want string) {
		t.Helper()
		if got != want {
			t.Errorf("name %q, want %q", got, want)
		}
	}
	for _, n := range net.nodes {
		check(n.srcQueue.pkts.Name(), fmt.Sprintf("gsf.n%d.src", n.id))
		for i := range n.vcs {
			vc := &n.vcs[i]
			check(vc.fifo.Name(), fmt.Sprintf("gsf.n%d.%s.vc%d", n.id, vc.dir, vc.idx))
		}
		for d := topo.North; d < topo.Local; d++ {
			nb, ok := net.mesh.Neighbor(n.id, d)
			if !ok {
				continue
			}
			check(n.flitOut[d].Name(), fmt.Sprintf("gsf.flit %d->%d", n.id, nb))
			check(n.credIn[d].Name(), fmt.Sprintf("gsf.cred %d->%d", nb, n.id))
		}
	}
}

func TestGSFSingleFlowDelivers(t *testing.T) {
	cfg := smallGSF()
	p := traffic.SingleFlow(cfg.Mesh(), 0, 15, 0.1, cfg.PacketFlits, 32)
	net := mustNet(t, cfg, p, 1, 0)
	net.Run(5000)
	if net.Throughput().TotalFlits() == 0 {
		t.Fatal("no flits delivered")
	}
	if net.Latency().Count() == 0 {
		t.Fatal("no packet latencies")
	}
	if mean := net.Latency().Mean(); mean > 300 {
		t.Fatalf("mean latency %.1f too high for light load", mean)
	}
}

func TestGSFConservation(t *testing.T) {
	cfg := smallGSF()
	p := traffic.NearestNeighbor(cfg.Mesh(), 0.2, cfg.PacketFlits, 32)
	net := mustNet(t, cfg, p, 7, 0)
	net.Run(4000)
	p.SetRate(0)
	net.Run(6000)
	if net.InFlight() != 0 || net.Backlog() != 0 {
		t.Fatalf("flits stuck after drain: in-flight %d, backlog %d", net.InFlight(), net.Backlog())
	}
}

func TestGSFFramesRecycle(t *testing.T) {
	cfg := smallGSF()
	p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, 32)
	net := mustNet(t, cfg, p, 3, 0)
	net.Run(5000)
	if net.Head() == 0 {
		t.Fatal("head frame never advanced")
	}
}

func TestGSFHotspotRegulation(t *testing.T) {
	cfg := smallGSF()
	p := hotspot(t, cfg, 0.5)
	net := mustNet(t, cfg, p, 5, 2000)
	net.Run(20000)
	var total float64
	var min, max float64
	for i, f := range p.Flows {
		r := net.Throughput().Flow(f.ID)
		total += r
		if i == 0 || r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	if total < 0.3 {
		t.Fatalf("hotspot total throughput %.3f too low", total)
	}
	if min <= 0 {
		t.Fatal("a flow was starved")
	}
	if max > 4*min {
		t.Fatalf("hotspot unfair: min %.4f max %.4f", min, max)
	}
}

func TestGSFOnePacketPerVC(t *testing.T) {
	// Structural: after a tail flit leaves a VC, the VC resets its route
	// and downstream allocation; mid-packet it must not.
	cfg := smallGSF()
	p := traffic.SingleFlow(cfg.Mesh(), 0, 15, 0.5, cfg.PacketFlits, 32)
	net := mustNet(t, cfg, p, 11, 0)
	net.Run(3000)
	// Flow ran at a healthy rate despite the single-packet rule.
	if net.Throughput().Flow(0) < 0.2 {
		t.Fatalf("single flow rate %.3f too low", net.Throughput().Flow(0))
	}
}

func TestGSFBarrierDelayMatters(t *testing.T) {
	// A larger barrier delay slows frame recycling and thus the head-frame
	// counter advance.
	run := func(delay int) int {
		cfg := smallGSF()
		cfg.BarrierDelay = delay
		p := traffic.Uniform(cfg.Mesh(), 0.05, cfg.PacketFlits, 32)
		net := mustNet(t, cfg, p, 13, 0)
		net.Run(5000)
		return net.Head()
	}
	fast, slow := run(1), run(200)
	if fast <= slow {
		t.Fatalf("head advance: delay=1 → %d, delay=200 → %d; want faster recycling with smaller delay", fast, slow)
	}
}

// TestFrameCountCheck corrupts the frame census of an audited network and
// requires the gsf.frame-count check to report exactly that: a live frame
// whose census is negative, and flits counted in a frame the barrier
// retires. The network steps to its second barrier countdown (the head
// frame is past 0 and holds no flit), corrupt runs, and the auditor sweeps.
func TestFrameCountCheck(t *testing.T) {
	for _, c := range []struct {
		name string
		// corrupt damages the census and returns the violation detail the
		// check must report, or "" for none.
		corrupt func(net *Network) string
	}{
		{"clean", func(*Network) string { return "" }},
		{"negative", func(net *Network) string {
			net.nodes[0].addFrame(net.head, -7)
			return fmt.Sprintf("frame %d flit census is negative (-7)", net.head)
		}},
		{"retired", func(net *Network) string {
			h := net.head
			net.nodes[0].addFrame(h, 3)
			for net.head == h {
				net.Run(1)
			}
			return fmt.Sprintf("retired frame %d still holds 3 flits (head %d)", h, h+1)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := smallGSF()
			aud := audit.New(audit.Config{})
			p := traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, 32)
			net, err := New(cfg, p, Options{Seed: 1, BaseFrameFlits: 32, Audit: aud})
			if err != nil {
				t.Fatal(err)
			}
			for net.head == 0 || net.barrier == 0 {
				net.Run(1)
			}
			want := c.corrupt(net)
			aud.FinishRun(net.Now())
			var got []string
			for _, v := range aud.Snapshot().ViolationLog {
				if v.Where == "gsf.frame-count" {
					got = append(got, v.Detail)
				}
			}
			if want == "" && len(got) != 0 || want != "" && (len(got) != 1 || got[0] != want) {
				t.Errorf("gsf.frame-count reported %q, want %q", got, want)
			}
		})
	}
}

func TestGSFSourceQueueDropsWhenFull(t *testing.T) {
	cfg := smallGSF()
	cfg.SourceQueue = 20
	p := hotspot(t, cfg, 0.9)
	net := mustNet(t, cfg, p, 17, 0)
	net.Run(8000)
	if net.Drops() == 0 {
		t.Fatal("no drops with a 20-flit source queue at 0.9 offered")
	}
	if net.Backlog() > cfg.Mesh().N()*cfg.SourceQueue {
		t.Fatal("backlog exceeds source queue capacity")
	}
}

func TestGSFFramePriorityHelpsOlderFrames(t *testing.T) {
	// Under contention the network drains head-frame flits first, so the
	// head frame keeps advancing even at full load.
	cfg := smallGSF()
	p := hotspot(t, cfg, 0.5)
	net := mustNet(t, cfg, p, 19, 0)
	net.Run(10000)
	if net.Head() < 3 {
		t.Fatalf("head frame stuck at %d under hotspot load", net.Head())
	}
	if net.Throughput().Total() < 0.3 {
		t.Fatalf("hotspot throughput %.3f too low", net.Throughput().Total())
	}
}

func TestGSFDeterminism(t *testing.T) {
	run := func() uint64 {
		cfg := smallGSF()
		p := traffic.Uniform(cfg.Mesh(), 0.2, cfg.PacketFlits, 32)
		net := mustNet(t, cfg, p, 29, 500)
		net.Run(4000)
		return net.Throughput().TotalFlits()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same-seed GSF runs differ: %d vs %d", a, b)
	}
}

func TestBestEffortWormholeDelivers(t *testing.T) {
	cfg := smallGSF()
	cfg.BestEffort = true
	p := traffic.Uniform(cfg.Mesh(), 0.2, cfg.PacketFlits, 32)
	net := mustNet(t, cfg, p, 3, 500)
	net.Run(5000)
	if net.Throughput().TotalFlits() == 0 {
		t.Fatal("best-effort network delivered nothing")
	}
	if net.Head() != 0 {
		t.Fatalf("barrier active in best-effort mode: head=%d", net.Head())
	}
}

func TestBestEffortHasNoIsolation(t *testing.T) {
	// The whole point of the QoS machinery: without it the DoS aggressors
	// take bandwidth from the victim beyond its share.
	cfg := smallGSF()
	cfg.BestEffort = true
	p := hotspot(t, cfg, 0.5)
	net := mustNet(t, cfg, p, 7, 2000)
	net.Run(15000)
	var min, max float64 = 1, 0
	for _, f := range p.Flows {
		r := net.Throughput().Flow(f.ID)
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	// Unregulated wormhole under a saturated hotspot is positionally
	// unfair; the spread is far beyond what the QoS variants allow.
	if min*3 > max {
		t.Fatalf("best-effort hotspot unexpectedly fair: min=%.4f max=%.4f", min, max)
	}
}

// TestQuietPathRuns checks that the quiet path of node.Tick carries nearly
// every node-cycle of a nearly idle network and almost none of a saturated
// one.
func TestQuietPathRuns(t *testing.T) {
	cfg := config.PaperGSF()
	lcfg := config.PaperLOFT()
	m := cfg.Mesh()
	hot, err := traffic.Hotspot(m, topo.NodeID(m.N()-1), 0.001, lcfg.PacketFlits, lcfg.FrameFlits, lcfg.QuantumFlits, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		p        *traffic.Pattern
		min, max float64
	}{
		{"hotspot-0.001", hot, 0.9, 1},
		{"uniform-0.6", traffic.Uniform(m, 0.6, lcfg.PacketFlits, lcfg.FrameFlits), 0, 0.05},
	} {
		net, err := New(cfg, c.p, Options{Seed: 1, BaseFrameFlits: lcfg.FrameFlits})
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
