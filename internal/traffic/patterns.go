package traffic

import (
	"fmt"

	"loft/internal/flit"
	"loft/internal/topo"
)

// Uniform returns the uniform-random pattern: each source is one flow (§6)
// with a fresh random destination per packet. Reservations are equal,
// F/maxFlows flits per frame, installed on every link (Table 1 assumes up to
// 64 flows contend per link).
func Uniform(m topo.Mesh, rate float64, pktFlits, frameFlits int) *Pattern {
	p := &Pattern{
		Name:        "uniform",
		Mesh:        m,
		Gens:        make(map[topo.NodeID][]Gen),
		AllLinks:    true,
		PacketFlits: pktFlits,
	}
	r := frameFlits / m.N()
	for n := 0; n < m.N(); n++ {
		id := flit.FlowID(n)
		p.Flows = append(p.Flows, flit.Flow{ID: id, Src: topo.NodeID(n), Dst: -1, Reservation: r})
		p.Gens[topo.NodeID(n)] = []Gen{{Flow: id, Rate: rate, RandomDst: true}}
	}
	return p
}

// Hotspot returns the hotspot pattern: every node except the hotspot sends
// to it; each source-destination pair is a distinct flow. weight returns the
// relative reservation weight for a source node (Fig. 10's partitions);
// reservations are computed in quantum units (quantumFlits data flits each)
// and scaled so that ΣR ≤ F holds on the hotspot's ejection link, the most
// contended link in the pattern. It returns an error when even one quantum
// per flow overflows the frame.
func Hotspot(m topo.Mesh, hotspot topo.NodeID, rate float64, pktFlits, frameFlits, quantumFlits int, weight func(src topo.NodeID) int) (*Pattern, error) {
	if weight == nil {
		weight = func(topo.NodeID) int { return 1 }
	}
	p := &Pattern{
		Name:        "hotspot",
		Mesh:        m,
		Gens:        make(map[topo.NodeID][]Gen),
		PacketFlits: pktFlits,
	}
	totalW := 0
	for n := 0; n < m.N(); n++ {
		if topo.NodeID(n) != hotspot {
			totalW += weight(topo.NodeID(n))
		}
	}
	slots := frameFlits / quantumFlits
	unitQ := slots / totalW
	if unitQ < 1 {
		unitQ = 1
	}
	id := flit.FlowID(0)
	for n := 0; n < m.N(); n++ {
		src := topo.NodeID(n)
		if src == hotspot {
			continue
		}
		r := unitQ * weight(src) * quantumFlits
		p.Flows = append(p.Flows, flit.Flow{ID: id, Src: src, Dst: hotspot, Reservation: r})
		p.Gens[src] = []Gen{{Flow: id, Rate: rate, Dst: hotspot}}
		id++
	}
	if err := p.Validate(frameFlits, quantumFlits); err != nil {
		return nil, fmt.Errorf("traffic: hotspot weights overflow frame: %w", err)
	}
	return p, nil
}

// QuadrantWeight partitions the mesh into four quadrants with the given
// weights (Fig. 10b uses four partitions with differentiated service).
func QuadrantWeight(m topo.Mesh, w [4]int) func(topo.NodeID) int {
	half := m.K / 2
	return func(n topo.NodeID) int {
		c := m.Coord(n)
		q := 0
		if c.X >= half {
			q++
		}
		if c.Y >= half {
			q += 2
		}
		return w[q]
	}
}

// HalfWeight partitions the mesh into left/right halves (Fig. 10c).
func HalfWeight(m topo.Mesh, left, right int) func(topo.NodeID) int {
	half := m.K / 2
	return func(n topo.NodeID) int {
		if m.Coord(n).X < half {
			return left
		}
		return right
	}
}

// CaseStudyI returns the §6.3 denial-of-service scenario: nodes 0, 48 and 56
// send to hotspot node 63; each flow is allocated 1/4 of the link bandwidth
// (R = F/4); flow 0→63 is the regulated victim at victimRate; flows 48→63
// and 56→63 are aggressors at aggressorRate.
func CaseStudyI(m topo.Mesh, victimRate, aggressorRate float64, pktFlits, frameFlits int) *Pattern {
	p := &Pattern{
		Name:        "case-study-1",
		Mesh:        m,
		Gens:        make(map[topo.NodeID][]Gen),
		PacketFlits: pktFlits,
	}
	hot := topo.NodeID(m.N() - 1)
	srcs := []topo.NodeID{0, topo.NodeID(6 * m.K), topo.NodeID(7 * m.K)}
	rates := []float64{victimRate, aggressorRate, aggressorRate}
	for i, src := range srcs {
		id := flit.FlowID(i)
		p.Flows = append(p.Flows, flit.Flow{ID: id, Src: src, Dst: hot, Reservation: frameFlits / 4})
		p.Gens[src] = []Gen{{Flow: id, Rate: rates[i], Dst: hot}}
	}
	return p
}

// CaseStudyIVictim, CaseStudyIAggressor1 and CaseStudyIAggressor2 name the
// flow ids of the Case Study I pattern.
const (
	CaseStudyIVictim     = flit.FlowID(0)
	CaseStudyIAggressor1 = flit.FlowID(1)
	CaseStudyIAggressor2 = flit.FlowID(2)
)

// CaseStudyII returns the Fig. 1 pathological pattern: the grey nodes of
// column 0 all send to a central hotspot while the stripped node sends to
// its nearest neighbor over an uncontended link. Equal reservations are
// allocated to all flows (no prior knowledge of the traffic pattern).
//
// Grey flows: (0,y) → center for every row y. Stripped flow:
// (K-2, 0) → (K-1, 0), whose single east link is used by no grey flow under
// XY routing (grey row-0 traffic only uses x ≤ center on row 0).
func CaseStudyII(m topo.Mesh, rate float64, pktFlits, frameFlits int) *Pattern {
	p := &Pattern{
		Name:        "case-study-2",
		Mesh:        m,
		Gens:        make(map[topo.NodeID][]Gen),
		PacketFlits: pktFlits,
	}
	center := m.ID(topo.Coord{X: m.K / 2, Y: m.K / 2})
	nFlows := m.K + 1
	r := frameFlits / nFlows
	r -= r % 2
	if r < 2 {
		r = 2
	}
	id := flit.FlowID(0)
	for y := 0; y < m.K; y++ {
		src := m.ID(topo.Coord{X: 0, Y: y})
		p.Flows = append(p.Flows, flit.Flow{ID: id, Src: src, Dst: center, Reservation: r})
		p.Gens[src] = []Gen{{Flow: id, Rate: rate, Dst: center}}
		id++
	}
	stripped := m.ID(topo.Coord{X: m.K - 2, Y: 0})
	neighbor := m.ID(topo.Coord{X: m.K - 1, Y: 0})
	p.Flows = append(p.Flows, flit.Flow{ID: id, Src: stripped, Dst: neighbor, Reservation: r})
	p.Gens[stripped] = []Gen{{Flow: id, Rate: rate, Dst: neighbor}}
	return p
}

// CaseStudyIIStripped returns the stripped flow's id within a CaseStudyII
// pattern (the last flow).
func CaseStudyIIStripped(p *Pattern) flit.FlowID {
	return p.Flows[len(p.Flows)-1].ID
}

// CaseStudyIIGrey returns the grey flow ids within a CaseStudyII pattern.
func CaseStudyIIGrey(p *Pattern) []flit.FlowID {
	ids := make([]flit.FlowID, 0, len(p.Flows)-1)
	for _, f := range p.Flows[:len(p.Flows)-1] {
		ids = append(ids, f.ID)
	}
	return ids
}

// NearestNeighbor returns a contention-free pattern where node (x,y) sends
// to (x+1,y) (last column sends west instead). Used by tests and the
// quickstart example.
func NearestNeighbor(m topo.Mesh, rate float64, pktFlits, frameFlits int) *Pattern {
	p := &Pattern{
		Name:        "nearest-neighbor",
		Mesh:        m,
		Gens:        make(map[topo.NodeID][]Gen),
		PacketFlits: pktFlits,
	}
	r := frameFlits / 4
	for n := 0; n < m.N(); n++ {
		src := topo.NodeID(n)
		c := m.Coord(src)
		var dst topo.NodeID
		if c.X+1 < m.K {
			dst = m.ID(topo.Coord{X: c.X + 1, Y: c.Y})
		} else {
			dst = m.ID(topo.Coord{X: c.X - 1, Y: c.Y})
		}
		id := flit.FlowID(n)
		p.Flows = append(p.Flows, flit.Flow{ID: id, Src: src, Dst: dst, Reservation: r})
		p.Gens[src] = []Gen{{Flow: id, Rate: rate, Dst: dst}}
	}
	return p
}

// Transpose returns the transpose permutation pattern ((x,y) → (y,x)),
// a classic adversarial pattern for XY routing (loftsim -pattern transpose).
func Transpose(m topo.Mesh, rate float64, pktFlits, frameFlits int) *Pattern {
	p := &Pattern{
		Name:        "transpose",
		Mesh:        m,
		Gens:        make(map[topo.NodeID][]Gen),
		PacketFlits: pktFlits,
	}
	r := frameFlits / m.K / 2
	r -= r % 2
	if r < 2 {
		r = 2
	}
	id := flit.FlowID(0)
	for n := 0; n < m.N(); n++ {
		src := topo.NodeID(n)
		c := m.Coord(src)
		dst := m.ID(topo.Coord{X: c.Y, Y: c.X})
		if dst == src {
			continue
		}
		p.Flows = append(p.Flows, flit.Flow{ID: id, Src: src, Dst: dst, Reservation: r})
		p.Gens[src] = []Gen{{Flow: id, Rate: rate, Dst: dst}}
		id++
	}
	return p
}

// SingleFlow returns a pattern with one flow src→dst, used by unit and
// integration tests.
func SingleFlow(m topo.Mesh, src, dst topo.NodeID, rate float64, pktFlits, frameFlits int) *Pattern {
	p := &Pattern{
		Name:        "single-flow",
		Mesh:        m,
		Gens:        make(map[topo.NodeID][]Gen),
		PacketFlits: pktFlits,
	}
	p.Flows = []flit.Flow{{ID: 0, Src: src, Dst: dst, Reservation: frameFlits / 2}}
	p.Gens[src] = []Gen{{Flow: 0, Rate: rate, Dst: dst}}
	return p
}

// Bursty returns a single-flow on/off pattern: the source alternates
// between bursts at full packet rate and idle gaps, with the given mean
// burst and gap lengths (cycles). The frame window's purpose (§3.1: "allows
// bursty flows to utilize excess bandwidth by providing multiple on-the-fly
// frames") is exercised by this pattern; the bursty study of
// exp.Ablations runs it.
func Bursty(m topo.Mesh, src, dst topo.NodeID, burst, gap int, pktFlits, frameFlits int) *Pattern {
	p := SingleFlow(m, src, dst, 0, pktFlits, frameFlits)
	p.Name = "bursty"
	p.Gens[src] = []Gen{{Flow: 0, Rate: 0, Dst: dst, Burst: burst, Gap: gap}}
	return p
}
