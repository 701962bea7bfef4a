package loft

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

// The look-ahead router keeps its buffered flits in per-output lists sorted
// by input, VC index and arrival. refLA keeps the structure those lists
// replaced: per-input VC FIFOs, filled by the shortest VC with space, and
// output arbitration as a nested scan over inputs in rotating priority, then
// each input's VCs, then each VC's FIFO positions. The lock-step driver
// below steps a network one node at a time, mirrors every accept and every
// booking into the reference and, at every node and cycle, requires both to
// choose the same VCs, order the same flits and book the same winners.

// refLA is one node's look-ahead router as the nested scans read it. It holds
// the router's own laEnt records.
type refLA struct {
	vcs  [topo.NumDirs][]*buffers.FIFO[*laEnt]
	rr   [topo.NumDirs]int
	seen map[*laEnt]bool
}

func newRefLA(cfg config.LOFT) *refLA {
	r := &refLA{seen: map[*laEnt]bool{}}
	for d := range r.vcs {
		for v := 0; v < cfg.LAVirtualChannels; v++ {
			r.vcs[d] = append(r.vcs[d], buffers.NewFIFO[*laEnt]("ref", cfg.LAVCDepth))
		}
	}
	return r
}

// shortest is the reference VC choice: the first VC of minimum length among
// those with space, or -1.
func (r *refLA) shortest(d topo.Dir) int {
	best := -1
	for v, vc := range r.vcs[d] {
		if vc.Full() {
			continue
		}
		if best < 0 || vc.Len() < r.vcs[d][best].Len() {
			best = v
		}
	}
	return best
}

// scan lists output o's flits in nested-scan order from input first.
func (r *refLA) scan(o topo.Dir, first int) []*laEnt {
	var out []*laEnt
	for i := 0; i < int(topo.NumDirs); i++ {
		for _, vc := range r.vcs[(first+i)%int(topo.NumDirs)] {
			// A full rotation visits every flit and keeps the VC's order.
			for k := vc.Len(); k > 0; k-- {
				e, _ := vc.Pop()
				vc.Push(e)
				if e.outDir == o {
					out = append(out, e)
				}
			}
		}
	}
	return out
}

// remove drops e from its VC, keeping the order of the rest.
func (r *refLA) remove(e *laEnt) error {
	vc := r.vcs[e.inDir][e.vc]
	found := false
	for k := vc.Len(); k > 0; k-- {
		x, _ := vc.Pop()
		if x == e {
			found = true
		} else {
			vc.Push(x)
		}
	}
	if !found {
		return fmt.Errorf("booked flit %+v missing from reference VC %s.%d", e.fl, e.inDir, e.vc)
	}
	delete(r.seen, e)
	return nil
}

// mirrorAccepts finds the flits the router accepted since the last call,
// requires each to sit in the VC the reference picks and to be freshly
// initialized, and pushes it there.
func (r *refLA) mirrorAccepts(n *Node, now uint64) error {
	var fresh [topo.NumDirs]*laEnt
	for _, list := range n.la.byOut {
		for _, e := range list {
			if r.seen[e] {
				continue
			}
			if fresh[e.inDir] != nil {
				return fmt.Errorf("two flits accepted on input %s at once", e.inDir)
			}
			fresh[e.inDir] = e
		}
	}
	for d, e := range fresh {
		if e == nil {
			continue
		}
		if want := r.shortest(topo.Dir(d)); e.vc != want {
			return fmt.Errorf("flit %+v on input %s took VC %d, reference VC %d", e.fl, e.inDir, e.vc, want)
		}
		if e.failVersion != 0 || e.readyAt != now+uint64(n.cfg.LAStages)-1 || e.entry == nil || e.entry.arriveSlot != e.fl.DepartPrev+1 {
			return fmt.Errorf("flit %+v accepted with readyAt %d failVersion %d entry %+v", e.fl, e.readyAt, e.failVersion, e.entry)
		}
		r.vcs[d][e.vc].Push(e)
		r.seen[e] = true
	}
	return r.sameState(n)
}

// sameState requires the router's VC occupancy counts and output lists to
// equal the reference's VC lengths and scan order from input 0.
func (r *refLA) sameState(n *Node) error {
	for d := range r.vcs {
		for v, vc := range r.vcs[d] {
			if got := n.la.vcLen[d][v]; got != vc.Len() {
				return fmt.Errorf("VC %s.%d holds %d flits, reference %d", topo.Dir(d), v, got, vc.Len())
			}
		}
	}
	for o := topo.North; o < topo.NumDirs; o++ {
		got, want := n.la.byOut[o], r.scan(o, 0)
		if len(got) != len(want) {
			return fmt.Errorf("output %s lists %d flits, reference %d", o, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("output %s position %d: %+v, reference %+v", o, i, got[i].fl, want[i].fl)
			}
		}
	}
	return nil
}

// checkProcess runs the router's look-ahead switching and requires, per
// output, the reference's result: the eligible flits (ready and not denied
// at the table's version) in nested-scan order from rr are requested one by
// one until the first booking, so the winner is eligible and the flits
// denied this cycle are exactly the eligible ones before it (all of them
// when nothing books). Outputs without a table or downstream look-ahead
// credit request nothing.
func (r *refLA) checkProcess(n *Node, now uint64) error {
	var eligible [topo.NumDirs][]*laEnt
	failed := map[*laEnt]uint64{}
	for o := topo.North; o < topo.NumDirs; o++ {
		for _, e := range n.la.byOut[o] {
			failed[e] = e.failVersion
		}
		t := n.outTables[o]
		if t == nil || o != topo.Local && n.la.credits[o].Available() == 0 {
			continue
		}
		for _, e := range r.scan(o, r.rr[o]) {
			if e.readyAt <= now && e.failVersion != t.Version() {
				eligible[o] = append(eligible[o], e)
			}
		}
	}
	before := n.la.byOut
	for o := range before {
		before[o] = append([]*laEnt(nil), before[o]...)
	}
	n.la.process(now)
	for o := topo.North; o < topo.NumDirs; o++ {
		var won *laEnt
		kept := map[*laEnt]bool{}
		for _, e := range n.la.byOut[o] {
			kept[e] = true
		}
		for _, e := range before[o] {
			if !kept[e] {
				if won != nil {
					return fmt.Errorf("output %s booked two flits", o)
				}
				won = e
			}
		}
		denied := 0
		for _, e := range n.la.byOut[o] {
			if e.failVersion != failed[e] {
				denied++
			}
		}
		prefix := eligible[o]
		if won != nil {
			k := 0
			for k < len(prefix) && prefix[k] != won {
				k++
			}
			if k == len(prefix) {
				return fmt.Errorf("output %s booked %+v, not eligible in the reference", o, won.fl)
			}
			prefix = prefix[:k]
		}
		for _, e := range prefix {
			if e.failVersion == failed[e] {
				return fmt.Errorf("output %s: reference requests %+v before the winner, the router did not deny it", o, e.fl)
			}
		}
		if denied != len(prefix) {
			return fmt.Errorf("output %s denied %d flits, reference %d", o, denied, len(prefix))
		}
		if won != nil {
			r.rr[o] = (int(won.inDir) + 1) % int(topo.NumDirs)
			if err := r.remove(won); err != nil {
				return err
			}
		}
		if n.la.rr[o] != r.rr[o] {
			return fmt.Errorf("output %s priority at input %d, reference %d", o, n.la.rr[o], r.rr[o])
		}
	}
	return r.sameState(n)
}

// stepChecked runs one cycle of net the way Tick and the harness do (every
// node's compute phase, then the stage replay), with the
// reference mirrored and checked after each node's accepts and bookings.
// The network runs without faults, probe, audit or profiler.
func stepChecked(net *Network, refs []*refLA, now uint64) error {
	for i, n := range net.nodes {
		ref := refs[i]
		n.drain(now)
		if err := ref.mirrorAccepts(n, now); err != nil {
			return fmt.Errorf("cycle %d node %d drain: %v", now, n.id, err)
		}
		if now%uint64(n.cfg.QuantumFlits) == 0 {
			n.frameTick(now)
			n.forwardData(n.slotOf(now), now)
			n.ni.forward(n.slotOf(now), now)
		}
		n.ni.generate(now)
		n.ni.book(now)
		if err := ref.mirrorAccepts(n, now); err != nil {
			return fmt.Errorf("cycle %d node %d book: %v", now, n.id, err)
		}
		if err := ref.checkProcess(n, now); err != nil {
			return fmt.Errorf("cycle %d node %d: %v", now, n.id, err)
		}
		n.flush(now)
	}
	for _, n := range net.nodes {
		n.obs.Drain()
	}
	return nil
}

// laConfig maps raw values onto a small LOFT network: MeshK 3–4, 1–4
// look-ahead VCs of depth 1–4, 1–3 look-ahead stages, spec 0 or 12, and
// uniform traffic at 0.05–0.9 flits/cycle/node.
func laConfig(k, vcs, depth, shape, rate uint8) (config.LOFT, *traffic.Pattern) {
	spec := 0
	if shape&0x80 != 0 {
		spec = 12
	}
	cfg := smallCfg(spec)
	cfg.MeshK = 3 + int(k%2)
	cfg.LAVirtualChannels = 1 + int(vcs%4)
	cfg.LAVCDepth = 1 + int(depth%4)
	cfg.LAStages = 1 + int(shape%3)
	r := 0.05 + 0.85*float64(rate)/255
	return cfg, traffic.Uniform(cfg.Mesh(), r, cfg.PacketFlits, cfg.FrameFlits)
}

const laLockStepCycles = 600

// laLockStep runs one configuration under the checked driver and, as a check
// on the driver itself, requires the same end state as the engine's own run.
func laLockStep(k, vcs, depth, shape, rate uint8, seed uint64) error {
	cfg, p := laConfig(k, vcs, depth, shape, rate)
	checked, err := New(cfg, p, Options{Seed: seed})
	if err != nil {
		return err
	}
	refs := make([]*refLA, len(checked.nodes))
	for i := range refs {
		refs[i] = newRefLA(cfg)
	}
	for now := uint64(0); now < laLockStepCycles; now++ {
		if err := stepChecked(checked, refs, now); err != nil {
			return fmt.Errorf("MeshK %d LA %d×%d stages %d spec %d rate %.2f seed %d: %v", cfg.MeshK, cfg.LAVirtualChannels,
				cfg.LAVCDepth, cfg.LAStages, cfg.SpecBufFlits, p.Gens[0][0].Rate, seed, err)
		}
	}
	engine, err := New(cfg, p, Options{Seed: seed})
	if err != nil {
		return err
	}
	engine.Run(laLockStepCycles)
	if got, want := laEndState(checked), laEndState(engine); got != want {
		return fmt.Errorf("%+v seed %d: checked driver ends at %s, engine at %s", cfg, seed, got, want)
	}
	return nil
}

// laEndState summarizes a network's simulated state: node counters,
// scheduler totals, NI backlog and every node's per-link quantum counters.
func laEndState(net *Network) string {
	out, inj := net.SchedulerTotals()
	s := fmt.Sprintf("%+v %+v %+v backlog %d links", net.TotalStats(), out, inj, net.Backlog())
	for _, n := range net.nodes {
		s += fmt.Sprint(n.linkBusy)
	}
	return s
}

// TestLookaheadOrderLockStep checks the per-output lists against the
// per-VC FIFOs and nested scans over random small configurations.
func TestLookaheadOrderLockStep(t *testing.T) {
	check := func(k, vcs, depth, shape, rate uint8, seed uint64) bool {
		if err := laLockStep(k, vcs, depth, shape, rate, seed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 24, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// FuzzLookaheadOrder runs the lock-step body on arbitrary configurations.
func FuzzLookaheadOrder(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(3), uint8(0x82), uint8(165), uint64(1)) // the paper's router on 4×4 at 0.6
	f.Add(uint8(0), uint8(0), uint8(1), uint8(0x80), uint8(165), uint64(2)) // one 2-flit VC, spec 12, 0.6
	f.Add(uint8(1), uint8(3), uint8(0), uint8(0x00), uint8(80), uint64(3))  // four 1-flit VCs, one stage, spec 0, 0.32
	f.Fuzz(func(t *testing.T, k, vcs, depth, shape, rate uint8, seed uint64) {
		if err := laLockStep(k, vcs, depth, shape, rate, seed); err != nil {
			t.Fatal(err)
		}
	})
}
