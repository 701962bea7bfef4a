package loft

import (
	"fmt"

	"loft/internal/buffers"
	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/probe"
	"loft/internal/route"
	"loft/internal/topo"
)

// laEnt is a look-ahead flit progressing through the look-ahead router.
type laEnt struct {
	fl      flit.Lookahead
	entry   *inEntry // the input reservation entry written on accept
	inDir   topo.Dir
	vc      int // VC index within inDir
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
	// vcLen[d][v] is the occupancy of VC v on input d (topo.Local = from the
	// NI); the five rows are carved from one array.
	vcLen [topo.NumDirs][]int
	// byOut[o] lists the buffered look-ahead flits routed to output o,
	// sorted by input direction, then VC index, then arrival: the order in
	// which a scan over inputs, their VCs and the VCs' FIFO positions meets
	// them. The lists are carved from one backing array, each with room for
	// all look-ahead buffering, so inserting never allocates.
	byOut [topo.NumDirs][]*laEnt
	// credits[o] tracks free look-ahead buffer slots at the neighbor
	// reached through output o (aggregate over its VCs); unused at mesh
	// edges.
	credits [4]buffers.Credits
	rr      [topo.NumDirs]int // rotating priority per output over input dirs
	// pool recycles laEnt records between accept and process, keeping the
	// steady state allocation-free.
	pool []*laEnt
	// held counts the flits on the byOut lists (the quiet test reads it).
	held int
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
// this only runs if that bound is ever wrong; out of line so the slow path
// stays out of allocEnt's inlined fast path.
//
//go:noinline
func newEnt() *laEnt {
	return new(laEnt)
}

func (la *laRouter) init(n *Node) {
	la.n = n
	vcs := n.cfg.LAVirtualChannels
	// Every live laEnt occupies a VC slot, so total look-ahead buffering
	// bounds the pool and each output list exactly.
	total := vcs * n.cfg.LAVCDepth * int(topo.NumDirs)
	ents := make([]laEnt, total)
	la.pool = make([]*laEnt, len(ents))
	for i := range ents {
		la.pool[i] = &ents[i]
	}
	lens := make([]int, vcs*int(topo.NumDirs))
	lists := make([]*laEnt, total*int(topo.NumDirs))
	for d := topo.North; d < topo.NumDirs; d++ {
		la.vcLen[d] = lens[int(d)*vcs : (int(d)+1)*vcs : (int(d)+1)*vcs]
		la.byOut[d] = lists[int(d)*total : int(d)*total : (int(d)+1)*total]
	}
	for o := 0; o < 4; o++ {
		if _, ok := n.mesh.Neighbor(n.id, topo.Dir(o)); ok {
			la.credits[o].Init(label.New(laCreditName, int(n.id), o), vcs*n.cfg.LAVCDepth)
		}
	}
}

// freeLocal returns free look-ahead buffer space at the local input (used
// by the NI before booking, so a booked quantum always gets its look-ahead
// flit injected in the same cycle).
func (la *laRouter) freeLocal() int {
	free := len(la.vcLen[topo.Local]) * la.n.cfg.LAVCDepth
	for _, l := range la.vcLen[topo.Local] {
		free -= l
	}
	return free
}

// accept receives a look-ahead flit on input dir d. Step 1 of the §3.2
// scheduling procedure happens here: the flit writes its quantum's identity
// and expected arrival into the input reservation table before entering the
// router pipeline.
func (la *laRouter) accept(fl *flit.Lookahead, d topo.Dir, now uint64) {
	n := la.n
	outDir := topo.Local
	if fl.Dst != n.id {
		outDir = route.XY(n.mesh, n.id, fl.Dst)
	}
	ip := &n.inputs[d]
	entry := ip.alloc()
	*entry = inEntry{
		q: Quantum{
			ID:  flit.QuantumID{Flow: fl.Flow, Seq: fl.Quantum},
			Src: fl.Src, Dst: fl.Dst,
			Flits:   fl.Flits,
			Created: fl.Created,
		},
		outDir:     outDir,
		arriveSlot: fl.DepartPrev + 1,
	}
	ip.insert(entry, n.id)
	// Pick the shortest VC with space; flow control guarantees one exists.
	lens, depth := la.vcLen[d], n.cfg.LAVCDepth
	best := -1
	for v, l := range lens {
		if l < depth && (best < 0 || l < lens[best]) {
			best = v
		}
	}
	if best < 0 {
		panic(fmt.Sprintf("loft: node %d: look-ahead buffer overflow on input %s", n.id, d))
	}
	lens[best]++
	ent := la.allocEnt()
	// Filled field by field: a composite literal would zero and copy the
	// whole record.
	ent.fl, ent.entry, ent.inDir, ent.vc, ent.outDir = *fl, entry, d, best, outDir
	ent.readyAt, ent.failVersion = now+uint64(n.cfg.LAStages)-1, 0
	// Insert after the last flit of a lower or equal (input, VC): the list
	// stays in scan order with this flit last of its VC.
	list := la.byOut[outDir]
	i := len(list)
	for i > 0 && (list[i-1].inDir > d || list[i-1].inDir == d && list[i-1].vc > best) {
		i--
	}
	list = list[:len(list)+1]
	copy(list[i+1:], list[i:])
	list[i] = ent
	la.byOut[outDir] = list
	la.held++
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
//
// Output o's list is in scan order from input 0; starting at its first flit
// from input rr[o] or later and wrapping gives the rotating input priority.
func (la *laRouter) process(now uint64) {
	n := la.n
	for o := topo.North; o < topo.NumDirs; o++ {
		table, list := n.outTables[o], la.byOut[o]
		if table == nil || len(list) == 0 {
			continue
		}
		if o != topo.Local && la.credits[o].Available() == 0 {
			continue // no look-ahead buffer downstream
		}
		version := table.Version()
		start := 0
		for start < len(list) && int(list[start].inDir) < la.rr[o] {
			start++
		}
		won := -1
		var depart uint64
		for k := range list {
			i := start + k
			if i >= len(list) {
				i -= len(list)
			}
			ent := list[i]
			if ent.readyAt > now || ent.failVersion == version {
				continue
			}
			slot, booked := table.Request(ent.fl.Flow, ent.fl.Quantum, ent.arriveSlotPlusPipe())
			if !booked {
				ent.failVersion = version
				continue
			}
			won, depart = i, slot
			la.rr[o] = (int(ent.inDir) + 1) % int(topo.NumDirs)
			break
		}
		if won < 0 {
			continue
		}
		ent := list[won]
		copy(list[won:], list[won+1:])
		la.byOut[o] = list[:len(list)-1]
		la.held--
		d := ent.inDir
		la.vcLen[d][ent.vc]--
		entry := ent.entry // written by accept; skips the slab lookup
		entry.booked = true
		entry.departSlot = depart
		if n.obs.Wants(probe.KindReserve) {
			n.obs.EmitSeq(now, probe.KindReserve, int32(n.id), int32(o), int32(ent.fl.Flow), ent.fl.Quantum, depart)
		}
		if entry.arrived {
			n.inputs[d].avail = append(n.inputs[d].avail, entry)
			n.candidates++
		}
		// Step 4 (§3.2): the input scheduler returns the virtual credit
		// to the previous router, tagged with the booked departure.
		if d == topo.Local {
			n.outTables[topo.NumDirs].ReturnCredit(depart)
		} else {
			n.pendVcred[d] = append(n.pendVcred[d], depart)
			n.pendLaCred[d]++ // freed look-ahead VC slot
		}
		if o != topo.Local {
			fl := ent.fl
			fl.DepartPrev = depart
			n.laOut[o].Write(now, fl)
			n.slot.Sent(o, now)
			la.credits[o].Consume()
			if n.obs.Wants(probe.KindLAIssue) {
				n.obs.EmitSeq(now, probe.KindLAIssue, int32(n.id), int32(o), int32(fl.Flow), fl.Quantum, depart*uint64(n.cfg.QuantumFlits))
			}
		}
		la.pool = append(la.pool, ent)
	}
}

// arriveSlotPlusPipe returns the earliest departure slot for the quantum
// this look-ahead flit leads: its arrival slot plus one slot of router
// pipeline. The data router has Table 1's 3 stages, which §5.1.2 fits in
// at most one 2-cycle slot beyond arrival, so the pipeline depth is this
// constant and not a setting.
func (e *laEnt) arriveSlotPlusPipe() uint64 { return e.fl.DepartPrev + 2 }
