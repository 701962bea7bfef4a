package traffic

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"loft/internal/flit"
	"loft/internal/route"
	"loft/internal/sim"
	"loft/internal/topo"
)

// TraceEvent is one packet injection in a trace-driven workload.
type TraceEvent struct {
	Cycle uint64
	Src   topo.NodeID
	Dst   topo.NodeID
	Flits int
}

// ParseTrace reads a workload trace: one event per line,
// "cycle src dst flits", '#' comments and blank lines ignored. Events need
// not be sorted; they come back sorted by cycle, events of one cycle in
// file order. The paper's evaluation uses synthetic traffic only (it has
// no access to production traces, and neither do we — DESIGN.md §5); the
// trace path lets downstream users replay their own captured workloads
// through either network.
func ParseTrace(r io.Reader) ([]TraceEvent, error) {
	var events []TraceEvent
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("traffic: trace line %d: want 4 fields, got %d", line, len(fields))
		}
		var ev TraceEvent
		var err error
		if ev.Cycle, err = strconv.ParseUint(fields[0], 10, 64); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad cycle: %v", line, err)
		}
		src, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad src: %v", line, err)
		}
		dst, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad dst: %v", line, err)
		}
		ev.Src, ev.Dst = topo.NodeID(src), topo.NodeID(dst)
		if ev.Flits, err = strconv.Atoi(fields[3]); err != nil {
			return nil, fmt.Errorf("traffic: trace line %d: bad flits: %v", line, err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	return events, nil
}

// WriteTrace writes events in the ParseTrace format.
func WriteTrace(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# cycle src dst flits"); err != nil {
		return err
	}
	for _, ev := range events {
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", ev.Cycle, ev.Src, ev.Dst, ev.Flits); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// FromTrace builds a pattern replaying the given events on mesh m. Each
// distinct (src, dst) pair becomes a flow; every flow receives an equal
// reservation scaled so ΣR ≤ F holds on the busiest link of the flow set.
// Events whose endpoints fall outside the mesh or whose size is not a
// positive quantum multiple are rejected.
func FromTrace(m topo.Mesh, events []TraceEvent, pktFlits, frameFlits, quantumFlits int) (*Pattern, error) {
	p := &Pattern{
		Name:        "trace",
		Mesh:        m,
		Gens:        make(map[topo.NodeID][]Gen),
		PacketFlits: pktFlits,
		Trace:       make(map[topo.NodeID][]TraceEvent),
	}
	type pair struct{ src, dst topo.NodeID }
	ids := make(map[pair]flit.FlowID)
	for _, ev := range events {
		if !m.Valid(m.Coord(ev.Src)) || !m.Valid(m.Coord(ev.Dst)) ||
			int(ev.Src) >= m.N() || int(ev.Dst) >= m.N() || ev.Src < 0 || ev.Dst < 0 {
			return nil, fmt.Errorf("traffic: trace event %v outside %dx%d mesh", ev, m.K, m.K)
		}
		if ev.Src == ev.Dst {
			return nil, fmt.Errorf("traffic: trace event %v is a self-send", ev)
		}
		if ev.Flits <= 0 || ev.Flits%quantumFlits != 0 {
			return nil, fmt.Errorf("traffic: trace event %v size not a positive quantum multiple", ev)
		}
		key := pair{ev.Src, ev.Dst}
		if _, seen := ids[key]; !seen {
			id := flit.FlowID(len(p.Flows))
			ids[key] = id
			p.Flows = append(p.Flows, flit.Flow{ID: id, Src: ev.Src, Dst: ev.Dst})
		}
		p.Trace[ev.Src] = append(p.Trace[ev.Src], ev)
	}
	if len(p.Flows) == 0 {
		return nil, fmt.Errorf("traffic: empty trace")
	}
	// Equal reservations: find the most-contended link and split F.
	counts := make(map[topo.Link]int)
	worst := 1
	for _, f := range p.Flows {
		for _, l := range linkSet(m, f) {
			counts[l]++
			if counts[l] > worst {
				worst = counts[l]
			}
		}
	}
	r := (frameFlits / worst / quantumFlits) * quantumFlits
	if r < quantumFlits {
		return nil, fmt.Errorf("traffic: %d flows contend for one link; frame %d too small", worst, frameFlits)
	}
	for i := range p.Flows {
		p.Flows[i].Reservation = r
	}
	// Record flow ids for replay.
	p.traceFlow = func(src, dst topo.NodeID) flit.FlowID { return ids[pair{src, dst}] }
	if err := p.Validate(frameFlits, quantumFlits); err != nil {
		return nil, err
	}
	return p, nil
}

func linkSet(m topo.Mesh, f flit.Flow) []topo.Link {
	links := []topo.Link{topo.InjectionLink(f.Src)}
	return append(links, route.Path(m, f.Src, f.Dst)...)
}

// SyntheticTrace generates a reproducible random trace (used by tests,
// examples and loftsim -gentrace as a stand-in for captured workloads): n
// packets over the given cycle horizon with uniform random endpoints.
func SyntheticTrace(m topo.Mesh, n int, horizon uint64, pktFlits int, seed uint64) []TraceEvent {
	rng := sim.NewRNG(sim.SeedFor(seed, 0))
	events := make([]TraceEvent, 0, n)
	for i := 0; i < n; i++ {
		src := topo.NodeID(rng.Intn(m.N()))
		dst := src
		for dst == src {
			dst = topo.NodeID(rng.Intn(m.N()))
		}
		events = append(events, TraceEvent{
			Cycle: rng.Uint64() % horizon,
			Src:   src,
			Dst:   dst,
			Flits: pktFlits,
		})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].Cycle < events[j].Cycle })
	return events
}
