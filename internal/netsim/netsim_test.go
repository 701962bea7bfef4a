package netsim

import (
	"reflect"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/fault"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// echo is the smallest architecture: every node stages one probe event and
// one ejected flit per cycle, and every fourth cycle a completed packet that
// was generated three cycles ago and injected only now.
type echo struct {
	id  int32
	obs *probe.Stage
}

func (e *echo) Tick(now uint64) {
	if e.obs.Wants(probe.KindSpecHit) {
		e.obs.Emit(now, probe.KindSpecHit, e.id, -1, -1, 0)
	}
	if e.obs.Wants(probe.KindEject) {
		e.obs.EmitAux(now, probe.KindEject, e.id, e.id, e.id, 0, 0, 1)
	}
	if now%4 == 1 && now > 1 && e.obs.Wants(probe.KindPacketDone) {
		e.obs.EmitAux(now+1, probe.KindPacketDone, e.id, -1, e.id, now, now, now-3)
	}
}

// build wires a 3×3 echo network whose commit hook logs a frame-roll event,
// so the event stream records where in the commit the hook ran.
func build(t *testing.T, workers int) (*Harness, *probe.Probe) {
	t.Helper()
	mesh := topo.NewMesh(3)
	pr := probe.New(probe.Config{})
	h, err := New(mesh, traffic.Uniform(mesh, 0.1, 4, 256), Options{Seed: 1, Warmup: 8, Probe: pr, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < mesh.N(); i++ {
		h.AddTicker(i, &echo{id: int32(i), obs: &h.Slot(i).Stage})
	}
	h.SetLinks("echo", func(l topo.Link) (uint64, bool) { return h.Now(), l.D == topo.East })
	h.OnCommit(perfmon.StageGSFFrame, func(now uint64) { pr.Emit(now, probe.KindGSFFrameRoll, -1, -1, -1, 0) })
	return h, pr
}

// mixed stages, every cycle, one record per consumer and one nobody wants:
// a traced event, a LOFT hop reservation (no consumer under a GSF auditor), a
// completed packet with no recorded injection — so the recorder logs one
// violation per record, in the order it saw them — whose latency makes the
// collectors' float sum depend on the order too: node 0's 2^53 swallows the
// later nodes' ones, and would not if it were added last.
type mixed struct {
	id  int32
	obs *probe.Stage
}

func mixedLatency(id int32) uint64 {
	if id == 0 {
		return 1 << 53
	}
	return 1
}

func (m *mixed) Tick(now uint64) {
	if m.obs.Wants(probe.KindSpecHit) {
		m.obs.Emit(now, probe.KindSpecHit, m.id, -1, -1, 0)
	}
	if m.obs.Wants(probe.KindReserve) {
		m.obs.EmitSeq(now, probe.KindReserve, m.id, 0, m.id, now, 0)
	}
	if m.obs.Wants(probe.KindPacketDone) {
		m.obs.EmitAux(now+mixedLatency(m.id), probe.KindPacketDone, m.id, -1, m.id, now, now, now)
	}
}

// TestCommitOrder pins the serial commit: node slots replay in id order,
// then the architecture's hook runs, every cycle, whatever the engine.
func TestCommitOrder(t *testing.T) {
	t.Run("engines", func(t *testing.T) {
		var sequential []probe.Event
		for _, workers := range []int{1, 4} {
			h, pr := build(t, workers)
			h.Run(6)
			h.Close()
			h.Run(6) // a closed harness restarts
			events := pr.Events()
			if len(events) != 12*10 {
				t.Fatalf("workers %d: %d events, want 12 cycles x (9 nodes + hook)", workers, len(events))
			}
			for i, e := range events {
				cycle, pos := uint64(i/10), int32(i%10)
				want := probe.Event{Cycle: cycle, Kind: probe.KindSpecHit, Node: pos, Loc: -1, Flow: -1}
				if pos == 9 {
					want = probe.Event{Cycle: cycle, Kind: probe.KindGSFFrameRoll, Node: -1, Loc: -1, Flow: -1}
				}
				if e != want {
					t.Fatalf("workers %d: event %d is %+v, want %+v", workers, i, e, want)
				}
			}
			if workers == 1 {
				sequential = events
			} else if !reflect.DeepEqual(sequential, events) {
				t.Errorf("workers %d: event stream differs from the sequential engine's", workers)
			}
		}
	})

	// One stream, three consumers: each sees exactly the records of its own
	// kinds, in node-id order, whoever else is attached.
	t.Run("one-stream", func(t *testing.T) {
		const cycles = 5
		mesh := topo.NewMesh(3)
		pattern := traffic.Uniform(mesh, 0.1, 4, 256)
		for _, workers := range []int{1, 4} {
			pr := probe.New(probe.Config{})
			aud := audit.New(audit.Config{MaxViolations: cycles * mesh.N()})
			gcfg := config.PaperGSF()
			gcfg.BestEffort = true // no delay bound for node 0's latency to exceed
			aud.BeginGSF(gcfg, mesh, pattern.Flows)
			h, err := New(mesh, pattern, Options{Seed: 1, Probe: pr, Audit: aud, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < mesh.N(); i++ {
				h.AddTicker(i, &mixed{id: int32(i), obs: &h.Slot(i).Stage})
			}
			var wantSum float64
			for i := 0; i < cycles*mesh.N(); i++ {
				wantSum += float64(mixedLatency(int32(i % mesh.N())))
			}
			h.Run(cycles)
			h.Close()
			events := pr.Events()
			if len(events) != cycles*mesh.N() {
				t.Fatalf("workers %d: tracer holds %d events, want %d (the traced kind only)", workers, len(events), cycles*mesh.N())
			}
			log := aud.Violations()
			if len(log) != cycles*mesh.N() || aud.Snapshot().PacketsChecked != uint64(len(log)) {
				t.Fatalf("workers %d: recorder logged %d violations over %d packets, want %d of each", workers, len(log), aud.Snapshot().PacketsChecked, cycles*mesh.N())
			}
			for i := range events {
				if e := events[i]; e.Kind != probe.KindSpecHit || e.Node != int32(i%mesh.N()) {
					t.Fatalf("workers %d: event %d is %+v, want a spec-hit of node %d", workers, i, e, i%mesh.N())
				}
				if v := log[i]; v.Kind != "eject-unrecorded" || v.Flow != int32(i%mesh.N()) {
					t.Fatalf("workers %d: violation %d is %+v, want flow %d's unrecorded packet", workers, i, v, i%mesh.N())
				}
			}
			if got := h.Latency().Mean() * float64(h.Latency().Count()); got != wantSum {
				t.Errorf("workers %d: collectors summed latencies to %v, want %v (node-id order)", workers, got, wantSum)
			}
		}

		// Without observers a stage wants the collectors' kinds and nothing
		// else, so that is all a guarded node stages.
		h, err := New(mesh, pattern, Options{})
		if err != nil {
			t.Fatal(err)
		}
		(&mixed{obs: &h.Slot(0).Stage}).Tick(0)
		(&echo{obs: &h.Slot(0).Stage}).Tick(0)
		recs := h.Slot(0).Stage.Drain()
		if len(recs) != 2 || recs[0].Kind != probe.KindPacketDone || recs[1].Kind != probe.KindEject {
			t.Errorf("unobserved stage kept %+v, want one packet-done and one eject", recs)
		}
	})

	// Staging a recorder record and replaying it costs no allocation (the
	// records are values in a buffer that keeps its backing array).
	t.Run("staging-allocs", func(t *testing.T) {
		mesh := topo.NewMesh(3)
		pattern := traffic.Uniform(mesh, 0.1, 4, 256)
		aud := audit.New(audit.Config{})
		aud.BeginLOFT(config.PaperLOFT(), mesh, pattern.Flows)
		h, err := New(mesh, pattern, Options{Audit: aud})
		if err != nil {
			t.Fatal(err)
		}
		obs := &h.Slot(4).Stage
		allocs := testing.AllocsPerRun(10, func() {
			for seq := uint64(0); seq < 128; seq++ {
				obs.EmitAux(0, probe.KindDataInject, 4, int32(topo.NumDirs), 4, seq, 0, 8)
			}
			h.commit(0)
		})
		if _, injected, _ := aud.RecorderCounts(); injected != 11*128 {
			t.Fatalf("recorder counted %d injections, want %d", injected, 11*128)
		}
		if allocs != 0 {
			t.Errorf("staging and replaying 128 recorder records allocates %.0f times, want 0", allocs)
		}
	})
}

// TestCollectorsShareTheWarmupRule pins the latency definitions every
// architecture inherits: flits count from the warm-up cycle on, and a packet
// counts — for total and network latency alike — when it was generated
// after warm-up, whenever it was injected.
func TestCollectorsShareTheWarmupRule(t *testing.T) {
	h, _ := build(t, 1)
	h.Run(16)
	// Per node: flits at cycles 8..15; packets created at 2, 6 and 10 are
	// injected at 5, 9 and 13. Warm-up is 8, so only the last one counts —
	// the one created at 6 was injected after warm-up but generated before.
	if got, want := h.Throughput().TotalFlits(), uint64(9*8); got != want {
		t.Errorf("counted %d flits, want %d", got, want)
	}
	if got := h.Latency().Count(); got != 9 {
		t.Errorf("total latency counted %d packets, want 9", got)
	}
	if got := h.NetLatency().Count(); got != 9 {
		t.Errorf("network latency counted %d packets, want 9 (same warm-up rule)", got)
	}
	if lat, net := h.Latency().Mean(), h.NetLatency().Mean(); lat != 4 || net != 1 {
		t.Errorf("mean latencies %.1f total / %.1f network, want 4 / 1", lat, net)
	}
	if got := h.FlowLatency().Count(4); got != 1 {
		t.Errorf("flow 4 counted %d packets, want 1", got)
	}
	// Links: only East links are modeled, each having carried Now() flits.
	util := h.LinkUtilization()
	if len(util) != 9 || util[topo.Link{From: 4, D: topo.East}] != 1 {
		t.Errorf("link utilization %v, want nine East links at 1.0", util)
	}
}

// TestNewRejectsBadInputs: a pattern for another mesh, a pattern whose flow
// ids are not 0..len(Flows)-1, and a plan naming a flow the pattern lacks
// are construction errors.
func TestNewRejectsBadInputs(t *testing.T) {
	mesh := topo.NewMesh(3)
	if _, err := New(mesh, traffic.Uniform(topo.NewMesh(4), 0.1, 4, 256), Options{}); err == nil {
		t.Error("pattern built for a 4x4 mesh accepted on a 3x3 one")
	}
	bad := traffic.Uniform(mesh, 0.1, 4, 256)
	bad.Flows[3].ID = -1
	if _, err := New(mesh, bad, Options{}); err == nil {
		t.Error("pattern with flow id -1 accepted")
	}
	plan, err := fault.Parse("adversary flow=99 factor=2 from=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(mesh, traffic.Uniform(mesh, 0.1, 4, 256), Options{Fault: plan}); err == nil {
		t.Error("plan naming flow 99 accepted on a nine-flow pattern")
	}
}

// TestWorkersCappedAtNodes: a worker per node is the most the parallel
// engine can use, so Workers 100 on a 9-node mesh runs nine workers and the
// profiler reports nine. It used to start 100, barriering 91 empty shards
// every cycle.
func TestWorkersCappedAtNodes(t *testing.T) {
	mesh := topo.NewMesh(3)
	mon := perfmon.New(perfmon.Config{SampleEvery: 1})
	h, err := New(mesh, traffic.Uniform(mesh, 0.1, 4, 256), Options{Seed: 1, Workers: 100, Perf: mon})
	if err != nil {
		t.Fatal(err)
	}
	par, ok := h.engine.(*sim.ParallelKernel)
	if !ok {
		t.Fatalf("engine %T, want *sim.ParallelKernel", h.engine)
	}
	if par.Workers() != mesh.N() {
		t.Errorf("Workers() = %d, want %d", par.Workers(), mesh.N())
	}
	if got := mon.Snapshot().Host.Workers; got != mesh.N() {
		t.Errorf("profiler reports %d workers, want %d", got, mesh.N())
	}
}

// TestLinkStamps pins the link activity stamps New wires: a node's Sent
// toward d in cycle n shows in Arrivals of its neighbour toward d, as the
// opposite input, in cycle n+1 and in no other cycle; writes in two
// consecutive cycles use both parity slots; and no node hears a neighbour
// it does not have.
func TestLinkStamps(t *testing.T) {
	mesh := topo.NewMesh(3)
	h, err := New(mesh, traffic.Uniform(mesh, 0.1, 4, 256), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	heard := func(now uint64) map[topo.Link]bool {
		out := map[topo.Link]bool{}
		for i := 0; i < mesh.N(); i++ {
			in := h.Slot(i).Arrivals(now)
			for d := topo.North; d < topo.Local; d++ {
				if in&(1<<d) != 0 {
					out[topo.Link{From: topo.NodeID(i), D: d}] = true
				}
			}
		}
		return out
	}
	for now := uint64(0); now < 4; now++ {
		if got := heard(now); len(got) != 0 {
			t.Fatalf("cycle %d: nothing was sent, heard %v", now, got)
		}
	}
	// Node 4 is the centre: it sends east in cycles 5 and 6, and every node
	// sends toward each neighbour it has in cycle 9.
	h.Slot(4).Sent(topo.East, 5)
	h.Slot(4).Sent(topo.East, 6)
	want := map[topo.Link]bool{{From: 5, D: topo.West}: true}
	for _, now := range []uint64{6, 7} {
		if got := heard(now); !reflect.DeepEqual(got, want) {
			t.Errorf("cycle %d: heard %v, want %v", now, got, want)
		}
	}
	if got := heard(8); len(got) != 0 {
		t.Errorf("cycle 8: heard %v, want nothing", got)
	}
	want = map[topo.Link]bool{}
	for i := 0; i < mesh.N(); i++ {
		for d := topo.North; d < topo.Local; d++ {
			if nb, ok := mesh.Neighbor(topo.NodeID(i), d); ok {
				h.Slot(i).Sent(d, 9)
				want[topo.Link{From: nb, D: d.Opposite()}] = true
			}
		}
	}
	if got := heard(10); !reflect.DeepEqual(got, want) {
		t.Errorf("cycle 10: heard %v, want %v", got, want)
	}
}
