package netsim

import (
	"reflect"
	"testing"

	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// echo is the smallest architecture: every node stages one probe event and
// one ejected flit per cycle, and every fourth cycle a completed packet that
// was generated three cycles ago and injected only now.
type echo struct {
	id   int
	slot *Slot
}

func (e *echo) Tick(now uint64) {
	e.slot.Probe.Emit(now, probe.KindSpecHit, int32(e.id), -1, -1, 0)
	e.slot.Flits(flit.FlowID(e.id), e.id, 1, now)
	if now%4 == 1 && now > 1 {
		e.slot.Packet(flit.FlowID(e.id), now-3, now, now+1)
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
		h.AddTicker(i, &echo{id: i, slot: h.Slot(i)})
	}
	h.SetLinks("echo", func(l topo.Link) (uint64, bool) { return h.Now(), l.D == topo.East })
	h.OnCommit(perfmon.StageGSFFrame, func(now uint64) { pr.Emit(now, probe.KindGSFFrameRoll, -1, -1, -1, 0) })
	return h, pr
}

// TestCommitOrder pins the serial commit: node slots replay in id order,
// then the architecture's hook runs, every cycle, whatever the engine.
func TestCommitOrder(t *testing.T) {
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

// TestNewRejectsBadInputs: a pattern for another mesh and a plan naming a
// flow the pattern lacks are construction errors.
func TestNewRejectsBadInputs(t *testing.T) {
	mesh := topo.NewMesh(3)
	if _, err := New(mesh, traffic.Uniform(topo.NewMesh(4), 0.1, 4, 256), Options{}); err == nil {
		t.Error("pattern built for a 4x4 mesh accepted on a 3x3 one")
	}
	plan, err := fault.Parse("adversary flow=99 factor=2 from=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(mesh, traffic.Uniform(mesh, 0.1, 4, 256), Options{Fault: plan}); err == nil {
		t.Error("plan naming flow 99 accepted on a nine-flow pattern")
	}
}
