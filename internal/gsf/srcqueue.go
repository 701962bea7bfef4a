package gsf

import (
	"math"

	"loft/internal/buffers"
	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// srcQueue is a node's source queue (Table 1: 2000 flits). It stores whole
// packets and hands the head packet out one flit at a time, so a queued
// packet costs one flit.Packet instead of one flit.Flit per flit. Len and
// Free count flits, as the hardware's flit queue does, so admission and
// every drop are those of a flit FIFO of the same capacity.
type srcQueue struct {
	pkts  buffers.FIFO[flit.Packet]
	sent  int // flits of the head packet already handed out
	flits int // flits queued: every packet's, less the head's sent ones
	cap   int // capacity in flits
}

// init empties q, a queue of capacity flits whose packets live in ring.
// ring must hold every packet capacity flits can: see ringPackets.
func (q *srcQueue) init(name label.Label, capacity int, ring []flit.Packet) {
	*q = srcQueue{cap: capacity}
	q.pkts.Init(name, ring)
}

// ringPackets is how many packets a queue of capacity flits can hold when
// no packet has fewer than minFlits: the head packet may be down to one
// flit, every other one holds at least minFlits.
func ringPackets(capacity, minFlits int) int {
	if capacity <= 0 {
		return 0
	}
	return 1 + (capacity-1)/minFlits
}

// minPacketFlits is the fewest flits a packet of p carries: the pattern's
// packet size, or under trace replay the smallest event's. Packets without
// flits queue nothing and do not count.
func minPacketFlits(p *traffic.Pattern) int {
	m := p.PacketFlits
	if p.Trace != nil {
		m = math.MaxInt
		for i := 0; i < p.Mesh.N(); i++ {
			for _, ev := range p.Trace[topo.NodeID(i)] {
				if ev.Flits > 0 && ev.Flits < m {
					m = ev.Flits
				}
			}
		}
	}
	return max(m, 1)
}

// Len returns the queued flits.
func (q *srcQueue) Len() int { return q.flits }

// Free returns the room left, in flits.
func (q *srcQueue) Free() int { return q.cap - q.flits }

// Push queues p's flits. It panics when they do not fit: callers check Free
// first. A packet of no flits queues nothing.
func (q *srcQueue) Push(p flit.Packet) {
	if p.Flits <= 0 {
		return
	}
	if p.Flits > q.Free() {
		panic("gsf: overflow on source queue " + q.pkts.Name())
	}
	q.pkts.Push(p)
	q.flits += p.Flits
}

// Head returns the packet the next flit belongs to, and whether that flit
// is the packet's head flit; nil when the queue is empty. It reads the
// packet in place, without building the flit.
func (q *srcQueue) Head() (*flit.Packet, bool) {
	return q.pkts.Front(), q.sent == 0
}

// Front returns the flit the next Pop hands out, and false when the queue
// is empty.
func (q *srcQueue) Front() (flit.Flit, bool) {
	p := q.pkts.Front()
	if p == nil {
		return flit.Flit{}, false
	}
	return flit.Flit{
		Flow: p.Flow, Src: p.Src, Dst: p.Dst,
		PktSeq: p.Seq, Index: q.sent,
		Head: q.sent == 0, Tail: q.sent == p.Flits-1,
		Created: p.Created,
	}, true
}

// Pop removes and returns the oldest flit, and false when the queue is
// empty. The head packet leaves the ring with its last flit.
func (q *srcQueue) Pop() (flit.Flit, bool) {
	f, ok := q.Front()
	if !ok {
		return f, false
	}
	q.flits--
	if q.sent++; f.Tail {
		q.pkts.Drop()
		q.sent = 0
	}
	return f, true
}
