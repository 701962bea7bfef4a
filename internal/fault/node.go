package fault

import "loft/internal/sim"

// rngStreamBase offsets the fault layer's per-node RNG streams away from
// the traffic injectors' (which use sim.SeedFor(seed, nodeID) directly), so
// arming a plan never perturbs clean-path draws.
const rngStreamBase = 1 << 20

// deferCap pre-sizes each direction's deferred-credit queue. A window slot
// books at most one quantum per output table, so even long stall windows
// accumulate tags slowly; the append grows past this only under pathological
// plans.
const deferCap = 64

// Edge is one fault window boundary on this node's timeline: the cycle a
// fault arms (Up == false) or lifts (Up == true). The owning node emits
// these as probe events, so chaos runs decompose like clean ones.
type Edge struct {
	Cycle uint64
	Ev    Event
	Up    bool
}

// Node is the per-node fault runtime compiled from a Plan: the events
// targeting one mesh node, a dedicated RNG stream for its loss draws, the
// deferred-credit queues, and the precompiled edge timeline. All state is
// owned by the node that ticks it, so every method is compute-phase safe
// and worker-count independent.
type Node struct {
	rng *sim.RNG

	// Per-direction link fault lists (indexes DirNorth..DirInject). Plans
	// name a handful of events, so linear scans beat any index.
	down  [NumDirs][]Event
	loss  [NumDirs][]Event
	stall [NumDirs][]Event
	// router holds RouterStall windows for this node.
	router []Event

	edges []Edge
	next  int // cursor into edges; cycles only move forward

	deferred [NumDirs][]uint64
}

// Node compiles the plan's per-node runtime for mesh node id: its targeted
// link and router faults plus timeline edges for adversary events whose
// source NI lives here (srcFlows). Returns nil when nothing targets the
// node, preserving the clean-path `fault == nil` fast check.
func (p *Plan) Node(id int, srcFlows []int, seed uint64) *Node {
	if p == nil {
		return nil
	}
	src := func(flow int) bool {
		for _, f := range srcFlows {
			if f == flow {
				return true
			}
		}
		return false
	}
	var n *Node
	ensure := func() *Node {
		if n == nil {
			n = &Node{rng: sim.NewRNG(sim.SeedFor(seed, rngStreamBase+id))}
			for d := range n.deferred {
				n.deferred[d] = make([]uint64, 0, deferCap)
			}
		}
		return n
	}
	for _, e := range p.Events {
		switch {
		case e.Kind == Adversary:
			if !src(e.Flow) {
				continue
			}
			ensure().addEdges(e)
		case e.Node != id:
			continue
		case e.Kind == LinkDown:
			m := ensure()
			m.down[e.Dir] = append(m.down[e.Dir], e)
			m.addEdges(e)
		case e.Kind == FlitLoss:
			m := ensure()
			m.loss[e.Dir] = append(m.loss[e.Dir], e)
			m.addEdges(e)
		case e.Kind == CreditStall:
			m := ensure()
			m.stall[e.Dir] = append(m.stall[e.Dir], e)
			m.addEdges(e)
		case e.Kind == RouterStall:
			m := ensure()
			m.router = append(m.router, e)
			m.addEdges(e)
		}
	}
	if n != nil {
		n.sortEdges()
	}
	return n
}

func (n *Node) addEdges(e Event) {
	n.edges = append(n.edges, Edge{Cycle: e.From, Ev: e})
	if e.To != 0 {
		n.edges = append(n.edges, Edge{Cycle: e.To, Ev: e, Up: true})
	}
}

// sortEdges orders the timeline by cycle, insertion-stable so equal-cycle
// edges replay in plan order.
func (n *Node) sortEdges() {
	es := n.edges
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Cycle < es[j-1].Cycle; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// Edges returns the fault window boundaries crossing at cycle now. The
// cursor only moves forward: calls must be made with non-decreasing cycles
// (one per node tick). The returned slice aliases the precompiled timeline.
func (n *Node) Edges(now uint64) []Edge {
	for n.next < len(n.edges) && n.edges[n.next].Cycle < now {
		n.next++
	}
	lo := n.next
	hi := lo
	for hi < len(n.edges) && n.edges[hi].Cycle == now {
		hi++
	}
	n.next = hi
	return n.edges[lo:hi]
}

// LinkDown reports whether output direction d is inside a link-down window.
func (n *Node) LinkDown(d int, now uint64) bool {
	for _, e := range n.down[d] {
		if e.active(now) {
			return true
		}
	}
	return false
}

// LoseFlit draws the loss decision for one forward attempt through
// direction d. The RNG is consumed only inside an active loss window, and
// only for attempts that actually reach the link — both functions of this
// node's own deterministic tick sequence, so draws replay identically under
// any worker count.
func (n *Node) LoseFlit(d int, now uint64) bool {
	for _, e := range n.loss[d] {
		if e.active(now) && n.rng.Bernoulli(e.Rate) {
			return true
		}
	}
	return false
}

// DenyForward reports whether a forward through direction d at cycle now is
// denied by an active fault — a link-down window (checked first, no RNG
// draw) or a flit-loss draw.
func (n *Node) DenyForward(d int, now uint64) bool {
	return n.LinkDown(d, now) || n.LoseFlit(d, now)
}

// RouterStalled reports whether the node's switch pass is frozen at now.
func (n *Node) RouterStalled(now uint64) bool {
	for _, e := range n.router {
		if e.active(now) {
			return true
		}
	}
	return false
}

// StallCredits reports whether credit returns arriving on direction d's
// reverse channel are withheld at cycle now.
func (n *Node) StallCredits(d int, now uint64) bool {
	for _, e := range n.stall[d] {
		if e.active(now) {
			return true
		}
	}
	return false
}

// DeferCredits withholds a batch of virtual-credit tags for direction d.
// The tags are copied: wire messages alias the sender's double-buffered
// accumulators, which recycle one cycle later.
func (n *Node) DeferCredits(d int, tags []uint64) {
	n.deferred[d] = append(n.deferred[d], tags...)
}

// ReleaseCredits returns the deferred tags for direction d once its stall
// window has passed, in arrival order, and empties the queue. The returned
// slice aliases the queue: consume it before the next DeferCredits call.
// Late application is exact — lsf.Table.ReturnCredit treats a stale tag as
// a whole-window increment and new slots inherit cumulative credit, so each
// deferred return still counts exactly once.
func (n *Node) ReleaseCredits(d int, now uint64) []uint64 {
	q := n.deferred[d]
	if len(q) == 0 || n.StallCredits(d, now) {
		return nil
	}
	n.deferred[d] = q[:0]
	return q
}

// Deferred reports the number of withheld credit tags for direction d
// (diagnostics and tests).
func (n *Node) Deferred(d int) int { return len(n.deferred[d]) }
