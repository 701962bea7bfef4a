package gsf

import (
	"math/rand"
	"testing"

	"loft/internal/buffers"
	"loft/internal/config"
	"loft/internal/flit"
	"loft/internal/label"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// TestSourceQueueMatchesFlitFIFO drives the packet queue and the flit FIFO
// it replaced with the same random packets of 1 to 5 flits, each admitted
// only when Free has room for all its flits, and the same pops. After every
// step both must agree on Len and Free and hand out the same next flit in
// every field. Capacities that are no multiple of any packet size leave
// packets refused with a few flits free.
func TestSourceQueueMatchesFlitFIFO(t *testing.T) {
	for _, capacity := range []int{1, 5, 7, 42} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		q := new(srcQueue)
		q.init(label.Fixed("q"), capacity, make([]flit.Packet, ringPackets(capacity, 1)))
		ref := buffers.NewFIFO[flit.Flit]("ref", capacity)
		var refused int
		for step := 0; step < 20000; step++ {
			if rng.Intn(2) == 0 {
				p := flit.Packet{Flow: flit.FlowID(rng.Intn(3)), Src: 1, Dst: topo.NodeID(rng.Intn(16)),
					Seq: uint64(step), Flits: 1 + rng.Intn(5), Created: uint64(step)}
				if q.Free() != ref.Free() {
					t.Fatalf("cap %d step %d: Free %d, reference %d", capacity, step, q.Free(), ref.Free())
				}
				if ref.Free() < p.Flits {
					refused++
					continue
				}
				q.Push(p)
				for i := 0; i < p.Flits; i++ {
					ref.Push(flit.Flit{Flow: p.Flow, Src: p.Src, Dst: p.Dst, PktSeq: p.Seq, Index: i,
						Head: i == 0, Tail: i == p.Flits-1, Created: p.Created})
				}
			} else if got, want := popBoth(q, ref); got != want {
				t.Fatalf("cap %d step %d: popped %+v, reference %+v", capacity, step, got, want)
			}
			got, ok := q.Front()
			want := ref.Front()
			if ok != (want != nil) || ok && got != *want {
				t.Fatalf("cap %d step %d: front %+v (%v), reference %v", capacity, step, got, ok, want)
			}
			if pkt, first := q.Head(); (pkt != nil) != ok || ok && (first != got.Head || pkt.Seq != got.PktSeq) {
				t.Fatalf("cap %d step %d: head packet %+v (first flit %v), front %+v", capacity, step, pkt, first, got)
			}
			if q.Len() != ref.Len() || q.Free() != ref.Free() {
				t.Fatalf("cap %d step %d: len %d free %d, reference len %d free %d", capacity, step, q.Len(), q.Free(), ref.Len(), ref.Free())
			}
		}
		if refused == 0 {
			t.Errorf("cap %d: no packet was refused", capacity)
		}
	}
}

// popBoth pops the packet queue and the reference alike; a flit neither
// holds reads as the zero flit on both.
func popBoth(q *srcQueue, ref *buffers.FIFO[flit.Flit]) (got, want flit.Flit) {
	got, _ = q.Pop()
	want, _ = ref.Pop()
	return got, want
}

// TestSourceQueueRingFits checks the packet ring New sizes from a pattern:
// a queue filled with the pattern's smallest packets, the head one down to
// a single flit, must fit its ring (a push past the ring panics), and it
// fills the ring whenever one packet fits at all. A packet of no flits
// queues nothing.
func TestSourceQueueRingFits(t *testing.T) {
	m := config.PaperGSF().Mesh()
	trace, err := traffic.FromTrace(m, []traffic.TraceEvent{{Cycle: 0, Src: 0, Dst: 1, Flits: 3}, {Cycle: 5, Src: 2, Dst: 1, Flits: 2}}, 4, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		p        *traffic.Pattern
		minFlits int
	}{
		{traffic.Uniform(m, 0.1, 4, 256), 4},
		{traffic.Uniform(m, 0.1, 1, 256), 1},
		{trace, 2},
	} {
		if got := minPacketFlits(c.p); got != c.minFlits {
			t.Errorf("%s: smallest packet %d flits, want %d", c.p.Name, got, c.minFlits)
		}
		for _, capacity := range []int{1, 2, 3, 7, 42, 2000} {
			var q srcQueue
			q.init(label.Fixed("q"), capacity, make([]flit.Packet, ringPackets(capacity, c.minFlits)))
			// A queue filled by minFlits-flit packets, then drained down to
			// one flit of the head packet and topped up again, holds the
			// most packets its flits allow.
			fill := func() {
				for q.Free() >= c.minFlits {
					q.Push(flit.Packet{Flits: c.minFlits})
				}
			}
			fill()
			for q.Len() > 1 && q.sent < c.minFlits-1 {
				q.Pop()
			}
			fill()
			q.Push(flit.Packet{})
			if capacity >= c.minFlits && !q.pkts.Full() {
				t.Errorf("%s cap %d: %d packets in a %d-packet ring", c.p.Name, capacity, q.pkts.Len(), q.pkts.Cap())
			}
		}
	}
}
