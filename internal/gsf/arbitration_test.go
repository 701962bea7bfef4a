package gsf

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"loft/internal/buffers"
	"loft/internal/config"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// The router arbitrates over per-output candidate lists built once per cycle
// (gather). refNode keeps the arbitration it replaced: for every output, a
// nested scan over every input port and every VC, transcribed from the
// by-value implementation and run on a copy of the node's VC and credit
// state. The lock-step driver below steps a network one node at a time and,
// at every node and cycle, requires both to grant the same downstream VCs,
// send the same flits and leave the same state behind.

// refNode is a node's arbitration state as the nested scans read it.
type refNode struct {
	vcs  [topo.NumDirs][]*inputVC
	outs [topo.NumDirs]*outPort
}

// grant is one output's arbitration outcome: the winning input VC and the
// downstream VC it was granted or sent on (all -1: no winner).
type grant struct {
	dir       topo.Dir
	idx, down int
}

var noGrant = grant{dir: -1, idx: -1, down: -1}

// cloneArb copies what arbitration reads and writes: every VC's queue,
// route and downstream VC, and every output's downstream VC state.
func cloneArb(n *node) *refNode {
	r := &refNode{}
	for d := topo.North; d < topo.NumDirs; d++ {
		for _, vc := range n.port(d) {
			c := vc
			c.fifo = buffers.NewFIFO[vcEntry]("ref", vc.fifo.Cap())
			for _, e := range fifoItems(vc.fifo) {
				c.fifo.Push(e)
			}
			r.vcs[d] = append(r.vcs[d], &c)
		}
		if out := n.outs[d]; out != nil {
			r.outs[d] = &outPort{down: append([]downVCState(nil), out.down...)}
		}
	}
	return r
}

// fifoItems lists f's items oldest first. It pops each item and pushes it
// back: a full rotation, which leaves the queue's order unchanged.
func fifoItems[T any](f *buffers.FIFO[T]) []T {
	out := make([]T, 0, f.Len())
	for i := f.Len(); i > 0; i-- {
		v, _ := f.Pop()
		f.Push(v)
		out = append(out, v)
	}
	return out
}

func refPeek(vc *inputVC) (vcEntry, bool) {
	if vc.fifo.Empty() {
		return vcEntry{}, false
	}
	return *vc.fifo.Front(), true
}

func refMustPeek(vc *inputVC) vcEntry {
	e, ok := refPeek(vc)
	if !ok {
		panic("gsf: peek on empty VC")
	}
	return e
}

func refFreeVC(o *outPort) int {
	for i := range o.down {
		if !o.down[i].allocated {
			return i
		}
	}
	return -1
}

// allocateVCs is the nested-scan VC allocator.
func (r *refNode) allocateVCs(now uint64) [topo.NumDirs]grant {
	won := [topo.NumDirs]grant{noGrant, noGrant, noGrant, noGrant, noGrant}
	for o := topo.North; o < topo.Local; o++ {
		out := r.outs[o]
		if out == nil {
			continue
		}
		free := refFreeVC(out)
		if free < 0 {
			continue
		}
		var best *inputVC
		for d := topo.North; d < topo.NumDirs; d++ {
			for _, vc := range r.vcs[d] {
				head, ok := refPeek(vc)
				if !ok || !vc.routed || vc.outDir != o || vc.downVC >= 0 || !head.f.Head || head.readyAt > now {
					continue
				}
				if best == nil || head.f.Frame < refMustPeek(best).f.Frame {
					best = vc
				}
			}
		}
		if best != nil {
			best.downVC = free
			out.down[free].allocated = true
			won[o] = grant{best.dir, best.idx, free}
		}
	}
	return won
}

// switchFlits is the nested-scan switch allocator, without the traversal's
// effects outside the node's VC and credit state.
func (r *refNode) switchFlits(now uint64) [topo.NumDirs]grant {
	won := [topo.NumDirs]grant{noGrant, noGrant, noGrant, noGrant, noGrant}
	var usedInput [topo.NumDirs]bool
	for o := topo.North; o < topo.NumDirs; o++ {
		if o != topo.Local && r.outs[o] == nil {
			continue
		}
		var best *inputVC
		var bestDir topo.Dir
		for d := topo.North; d < topo.NumDirs; d++ {
			if usedInput[d] {
				continue
			}
			for _, vc := range r.vcs[d] {
				head, ok := refPeek(vc)
				if !ok || !vc.routed || vc.outDir != o || head.readyAt > now {
					continue
				}
				if o != topo.Local {
					if vc.downVC < 0 || r.outs[o].down[vc.downVC].credits == 0 {
						continue
					}
				}
				if best == nil || head.f.Frame < refMustPeek(best).f.Frame {
					best, bestDir = vc, d
				}
			}
		}
		if best == nil {
			continue
		}
		usedInput[bestDir] = true
		won[o] = grant{bestDir, best.idx, best.downVC}
		e, _ := best.fifo.Pop()
		if o != topo.Local {
			r.outs[o].down[best.downVC].credits--
		}
		if e.f.Tail {
			best.routed = false
			best.downVC = -1
		}
	}
	return won
}

// sameState reports the first difference between the node's arbitration
// state and the reference copy's.
func (r *refNode) sameState(n *node) error {
	for d := topo.North; d < topo.NumDirs; d++ {
		for v := range n.port(d) {
			got, want := &n.port(d)[v], r.vcs[d][v]
			if got.routed != want.routed || got.outDir != want.outDir || got.downVC != want.downVC || got.fifo.Len() != want.fifo.Len() {
				return fmt.Errorf("VC %s.%d: routed %v out %s down %d len %d, reference routed %v out %s down %d len %d", d, v,
					got.routed, got.outDir, got.downVC, got.fifo.Len(), want.routed, want.outDir, want.downVC, want.fifo.Len())
			}
			wantItems := fifoItems(want.fifo)
			for i, e := range fifoItems(got.fifo) {
				if e != wantItems[i] {
					return fmt.Errorf("VC %s.%d entry %d: %+v, reference %+v", d, v, i, e, wantItems[i])
				}
			}
		}
		if n.outs[d] != nil {
			for v, s := range n.outs[d].down {
				if s != r.outs[d].down[v] {
					return fmt.Errorf("output %s downstream VC %d: %+v, reference %+v", d, v, s, r.outs[d].down[v])
				}
			}
		}
	}
	return nil
}

// arbSnapshot is what the router's arbitration may change on each VC.
type arbSnapshot []struct{ downVC, len int }

func snapshot(n *node) arbSnapshot {
	s := make(arbSnapshot, len(n.vcs))
	for i := range n.vcs {
		s[i].downVC, s[i].len = n.vcs[i].downVC, n.vcs[i].fifo.Len()
	}
	return s
}

// allocated reads the router's VC-allocation winners off the VCs whose
// downstream VC was set since before.
func allocated(n *node, before arbSnapshot) ([topo.NumDirs]grant, error) {
	won := [topo.NumDirs]grant{noGrant, noGrant, noGrant, noGrant, noGrant}
	for i := range n.vcs {
		vc := &n.vcs[i]
		if vc.downVC == before[i].downVC {
			continue
		}
		if before[i].downVC >= 0 || won[vc.outDir] != noGrant {
			return won, fmt.Errorf("VC %s.%d: downstream VC %d -> %d, output %s already granted %+v", vc.dir, vc.idx, before[i].downVC, vc.downVC, vc.outDir, won[vc.outDir])
		}
		won[vc.outDir] = grant{vc.dir, vc.idx, vc.downVC}
	}
	return won, nil
}

// switched reads the router's switch winners off the VCs that lost a flit
// since before; routes and downstream VCs are taken from pre, the state
// before switching, because a tail resets them.
func switched(n *node, pre []inputVC, before arbSnapshot) ([topo.NumDirs]grant, error) {
	won := [topo.NumDirs]grant{noGrant, noGrant, noGrant, noGrant, noGrant}
	for i := range n.vcs {
		switch vc := &pre[i]; n.vcs[i].fifo.Len() - before[i].len {
		case 0:
		case -1:
			if won[vc.outDir] != noGrant {
				return won, fmt.Errorf("output %s sent twice: %+v and VC %s.%d", vc.outDir, won[vc.outDir], vc.dir, vc.idx)
			}
			won[vc.outDir] = grant{vc.dir, vc.idx, vc.downVC}
		default:
			return won, fmt.Errorf("VC %s.%d: length %d -> %d while switching", vc.dir, vc.idx, before[i].len, n.vcs[i].fifo.Len())
		}
	}
	return won, nil
}

// stepChecked runs one cycle of net the way Tick and the harness do (compute
// every node, replay, commit frames), with the reference arbitration checked
// at every node between the drain and the injection.
func stepChecked(net *Network, now uint64) error {
	for _, n := range net.nodes {
		for _, pkt := range n.inj.Next(now) {
			n.enqueue(pkt)
		}
		n.drain(now, n.slot.Arrivals(now))
		ref := cloneArb(n)
		wantAlloc := ref.allocateVCs(now)
		wantSwitch := ref.switchFlits(now)

		n.gather(now)
		before := snapshot(n)
		n.allocateVCs()
		gotAlloc, err := allocated(n, before)
		if err != nil {
			return fmt.Errorf("cycle %d node %d: %v", now, n.id, err)
		}
		if gotAlloc != wantAlloc {
			return fmt.Errorf("cycle %d node %d: VC allocation %+v, reference %+v", now, n.id, gotAlloc, wantAlloc)
		}
		pre := append([]inputVC(nil), n.vcs...)
		before = snapshot(n)
		n.switchFlits(now)
		gotSwitch, err := switched(n, pre, before)
		if err != nil {
			return fmt.Errorf("cycle %d node %d: %v", now, n.id, err)
		}
		if gotSwitch != wantSwitch {
			return fmt.Errorf("cycle %d node %d: switch %+v, reference %+v", now, n.id, gotSwitch, wantSwitch)
		}
		if err := ref.sameState(n); err != nil {
			return fmt.Errorf("cycle %d node %d: %v", now, n.id, err)
		}

		n.inject(now)
		n.flush(now)
	}
	for _, n := range net.nodes {
		n.obs.Drain()
	}
	net.commitFrames(now)
	return nil
}

// arbConfig maps raw values onto a small GSF network: MeshK 3–4, 1–6 VCs of
// depth 1–5, packets of 1–4 flits, 1–3 pipeline stages, best effort on or
// off and uniform traffic at 0.05–0.9 flits/cycle/node. The source queue is
// short, so saturated runs drop packets too.
func arbConfig(k, vcs, depth, shape, rate uint8) (config.GSF, *traffic.Pattern) {
	cfg := config.PaperGSF()
	cfg.MeshK = 3 + int(k%2)
	cfg.VirtualChannels = 1 + int(vcs%6)
	cfg.VCDepth = 1 + int(depth%5)
	cfg.PacketFlits = 1 + int(shape%4)
	cfg.PipeStages = 1 + int(shape/4%3)
	cfg.BestEffort = shape&0x80 != 0
	cfg.FrameFlits = 200
	cfg.SourceQueue = 40
	r := 0.05 + 0.85*float64(rate)/255
	return cfg, traffic.Uniform(cfg.Mesh(), r, cfg.PacketFlits, 32)
}

const lockStepCycles = 400

// lockStep runs one configuration under the checked driver and, as a check
// on the driver itself, requires the same end state as the engine's own run.
func lockStep(k, vcs, depth, shape, rate uint8, seed uint64) error {
	cfg, p := arbConfig(k, vcs, depth, shape, rate)
	opts := Options{Seed: seed, BaseFrameFlits: 32}
	checked, err := New(cfg, p, opts)
	if err != nil {
		return err
	}
	for now := uint64(0); now < lockStepCycles; now++ {
		if err := stepChecked(checked, now); err != nil {
			return fmt.Errorf("%+v rate %.2f seed %d: %v", cfg, p.Gens[0][0].Rate, seed, err)
		}
	}
	engine, err := New(cfg, p, opts)
	if err != nil {
		return err
	}
	engine.Run(lockStepCycles)
	if got, want := endState(checked), endState(engine); got != want {
		return fmt.Errorf("%+v seed %d: checked driver ends at %s, engine at %s", cfg, seed, got, want)
	}
	return nil
}

// endState summarizes a network's simulated state: frame head and census,
// backlog, drops and every node's per-link flit counters.
func endState(net *Network) string {
	s := fmt.Sprintf("head %d in-flight %d backlog %d drops %d links", net.Head(), net.InFlight(), net.Backlog(), net.Drops())
	for _, n := range net.nodes {
		s += fmt.Sprint(n.linkBusy)
	}
	return s
}

// TestArbitrationLockStep checks the candidate-list arbitration against the
// nested scans over random small configurations.
func TestArbitrationLockStep(t *testing.T) {
	check := func(k, vcs, depth, shape, rate uint8, seed uint64) bool {
		if err := lockStep(k, vcs, depth, shape, rate, seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 24, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzGSFArbitration runs the lock-step body on arbitrary configurations.
func FuzzGSFArbitration(f *testing.F) {
	f.Add(uint8(1), uint8(5), uint8(4), uint8(11), uint8(165), uint64(1))   // the paper's router on 4×4 at 0.6
	f.Add(uint8(0), uint8(1), uint8(2), uint8(0x80), uint8(255), uint64(2)) // two VCs, best effort, 1-flit packets, 0.9
	f.Add(uint8(1), uint8(0), uint8(0), uint8(0x87), uint8(40), uint64(3))  // one one-slot VC, best effort, 0.18
	f.Fuzz(func(t *testing.T, k, vcs, depth, shape, rate uint8, seed uint64) {
		if err := lockStep(k, vcs, depth, shape, rate, seed); err != nil {
			t.Fatal(err)
		}
	})
}
