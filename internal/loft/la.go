package loft

import (
	"fmt"

	"loft/internal/buffers"
	"loft/internal/flit"
	"loft/internal/probe"
	"loft/internal/route"
	"loft/internal/topo"
)

// laEnt is a look-ahead flit progressing through the look-ahead router.
type laEnt struct {
	fl      flit.Lookahead
	entry   *inEntry // the input reservation entry written on accept
	inDir   topo.Dir
	outDir  topo.Dir
	readyAt uint64 // cycle the flit has passed RC/VA and may arbitrate
	// failVersion suppresses re-requests until the output table changes
	// (lsf.Table.Version).
	failVersion uint64
}

// laRouter models the look-ahead-network router of Fig. 4: per-input
// virtual channels, a 3-stage pipeline (modeled as a readiness delay plus
// per-output arbitration), credit flow control toward neighbors, and the
// output-scheduling stage that runs the LSF injection procedure.
type laRouter struct {
	n *Node
	// vcs[d] are the input VCs for direction d (topo.Local = from the NI).
	vcs [topo.NumDirs][]*buffers.FIFO[*laEnt]
	// pending[o] counts buffered look-ahead flits routed to output o, so
	// idle outputs are skipped without scanning the VCs.
	pending [topo.NumDirs]int
	// credits[o] tracks free look-ahead buffer slots at the neighbor
	// reached through output o (aggregate over its VCs).
	credits [4]*buffers.Credits
	rr      [topo.NumDirs]int // rotating priority per output over input dirs
	// pool recycles laEnt records between accept and process, keeping the
	// steady state allocation-free.
	pool []*laEnt
}

// allocEnt returns a recycled laEnt or a fresh one.
func (la *laRouter) allocEnt() *laEnt {
	if k := len(la.pool); k > 0 {
		e := la.pool[k-1]
		la.pool = la.pool[:k-1]
		return e
	}
	return newEnt()
}

// newEnt is the refill path. init seeds the pool to the exact live bound, so
// this only runs if that bound is ever wrong; out of line so the heap
// allocation stays off the Tick closure.
//
//loft:coldpath
//go:noinline
func newEnt() *laEnt {
	return new(laEnt)
}

func (la *laRouter) init(n *Node) {
	la.n = n
	// Every live laEnt occupies a VC slot, so total look-ahead buffering
	// bounds the pool exactly: seeding it here makes allocEnt heap-free.
	ents := make([]laEnt, n.cfg.LAVirtualChannels*n.cfg.LAVCDepth*int(topo.NumDirs))
	la.pool = make([]*laEnt, len(ents))
	for i := range ents {
		la.pool[i] = &ents[i]
	}
	for d := topo.North; d < topo.NumDirs; d++ {
		la.vcs[d] = make([]*buffers.FIFO[*laEnt], n.cfg.LAVirtualChannels)
		for v := range la.vcs[d] {
			la.vcs[d][v] = buffers.NewFIFO[*laEnt](fmt.Sprintf("n%d.la.%s.vc%d", n.id, d, v), n.cfg.LAVCDepth)
		}
	}
	for o := 0; o < 4; o++ {
		if _, ok := n.mesh.Neighbor(n.id, topo.Dir(o)); ok {
			la.credits[o] = buffers.NewCredits(fmt.Sprintf("n%d.la.%s", n.id, topo.Dir(o)), n.cfg.LAVirtualChannels*n.cfg.LAVCDepth)
		}
	}
}

// freeLocal returns free look-ahead buffer space at the local input (used
// by the NI before booking, so a booked quantum always gets its look-ahead
// flit injected in the same cycle).
func (la *laRouter) freeLocal() int {
	free := 0
	for _, vc := range la.vcs[topo.Local] {
		free += vc.Free()
	}
	return free
}

// accept receives a look-ahead flit on input dir d. Step 1 of the §3.2
// scheduling procedure happens here: the flit writes its quantum's identity
// and expected arrival into the input reservation table before entering the
// router pipeline.
func (la *laRouter) accept(fl flit.Lookahead, d topo.Dir, now uint64) {
	n := la.n
	outDir := topo.Local
	if fl.Dst != n.id {
		outDir = route.XY(n.mesh, n.id, fl.Dst)
	}
	qid := flit.QuantumID{Flow: fl.Flow, Seq: fl.Quantum}
	ip := n.inputs[d]
	entry := ip.alloc()
	*entry = inEntry{
		q: Quantum{
			ID:  qid,
			Src: fl.Src, Dst: fl.Dst,
			Flits:   fl.Flits,
			Created: fl.Created,
		},
		outDir:     outDir,
		arriveSlot: fl.DepartPrev + 1,
	}
	ip.insert(entry, n.id)
	// Pick the shortest VC with space; flow control guarantees one exists.
	var best *buffers.FIFO[*laEnt]
	for _, vc := range la.vcs[d] {
		if vc.Full() {
			continue
		}
		if best == nil || vc.Len() < best.Len() {
			best = vc
		}
	}
	if best == nil {
		panic(fmt.Sprintf("loft: node %d: look-ahead buffer overflow on input %s", n.id, d))
	}
	ent := la.allocEnt()
	*ent = laEnt{fl: fl, entry: entry, inDir: d, outDir: outDir, readyAt: now + uint64(n.cfg.LAStages) - 1}
	best.Push(ent)
	la.pending[outDir]++
}

// process runs one cycle of look-ahead switching: per output port, at most
// one ready flit wins the output-scheduling stage, runs the LSF injection
// procedure (Algorithm 1) on that output's reservation table, updates the
// input reservation entry, returns the virtual credit upstream and moves
// on.
//
// Every ready look-ahead flit buffered at an input — not only VC heads —
// may request scheduling: its reservation request was recorded in the
// input reservation table on arrival (§3.2 step 1), so the output
// scheduler serves requests in any order. Without this, a flit of a
// window-exhausted flow would block its VC head for up to a frame period,
// and that head-of-line blocking compounds into starvation of long-path
// flows at every merge point. Flits of throttled flows stay buffered and
// retry when the table state changes (version gating avoids busy-wait).
func (la *laRouter) process(now uint64) {
	n := la.n
	for o := topo.North; o < topo.NumDirs; o++ {
		table := n.outTables[o]
		if table == nil || la.pending[o] == 0 {
			continue
		}
		if o != topo.Local && la.credits[o].Available() == 0 {
			continue // no look-ahead buffer downstream
		}
		version := table.Version()
		var won *laEnt
		var wonVC *buffers.FIFO[*laEnt]
		var depart uint64
	inputs:
		for i := 0; i < int(topo.NumDirs); i++ {
			d := topo.Dir((la.rr[o] + i) % int(topo.NumDirs))
			for _, vc := range la.vcs[d] {
				for j := 0; j < vc.Len(); j++ {
					ent := vc.At(j)
					if ent.outDir != o || ent.readyAt > now || ent.failVersion == version {
						continue
					}
					slot, booked := table.Request(ent.fl.Flow, ent.fl.Quantum, ent.arriveSlotPlusPipe())
					if !booked {
						ent.failVersion = version
						continue
					}
					won, wonVC, depart = ent, vc, slot
					la.rr[o] = (int(d) + 1) % int(topo.NumDirs)
					break inputs
				}
			}
		}
		if won == nil {
			continue
		}
		if _, ok := wonVC.RemoveFunc(func(e *laEnt) bool { return e == won }); !ok {
			panic("loft: booked look-ahead flit missing from its VC")
		}
		la.pending[o]--
		d := won.inDir
		entry := won.entry // written by accept; skips the map lookup
		entry.booked = true
		entry.departSlot = depart
		if n.obs.Wants(probe.KindReserve) {
			n.obs.EmitSeq(now, probe.KindReserve, int32(n.id), int32(o), int32(won.fl.Flow), won.fl.Quantum, depart)
		}
		if entry.arrived {
			n.inputs[d].avail = append(n.inputs[d].avail, entry)
		}
		// Step 4 (§3.2): the input scheduler returns the virtual credit
		// to the previous router, tagged with the booked departure.
		if d == topo.Local {
			n.injTable.ReturnCredit(depart)
		} else {
			n.pendVcred[d] = append(n.pendVcred[d], depart)
			n.pendLaCred[d]++ // freed look-ahead VC slot
		}
		if o != topo.Local {
			fl := won.fl
			fl.DepartPrev = depart
			n.laOut[o].Write(fl)
			la.credits[o].Consume()
			if n.obs.Wants(probe.KindLAIssue) {
				n.obs.EmitSeq(now, probe.KindLAIssue, int32(n.id), int32(o), int32(fl.Flow), fl.Quantum, depart*uint64(n.cfg.QuantumFlits))
			}
		}
		la.pool = append(la.pool, won)
	}
}

// arriveSlotPlusPipe returns the earliest departure slot for the quantum
// this look-ahead flit leads: its arrival slot plus one slot of router
// pipeline (§5.1.2's 3-stage data router spans at most one 2-cycle slot
// beyond arrival).
func (e laEnt) arriveSlotPlusPipe() uint64 { return e.fl.DepartPrev + 2 }
