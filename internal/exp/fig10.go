package exp

import (
	"fmt"

	"loft/internal/core"
	"loft/internal/stats"
	"loft/internal/sweep"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// FairnessRow is one region of Fig. 10: the max/min/avg and relative
// standard deviation of per-flow accepted throughput (flits/cycle/node).
type FairnessRow struct {
	Region        string
	Max, Min, Avg float64
	StdevPct      float64
	Flows         int
}

// Allocation names the three Fig. 10 experiments.
type Allocation string

// Fig. 10 allocations: equal shares (10a), four weighted quadrants (10b),
// two weighted halves (10c).
const (
	AllocEqual Allocation = "equal"
	AllocDiff4 Allocation = "diff4"
	AllocDiff2 Allocation = "diff2"
)

// Fig10All runs all three Fig. 10 allocations, fanned across the sweep
// worker pool (each allocation is one independent simulation).
func Fig10All(o Options) (map[Allocation][]FairnessRow, error) {
	allocs := []Allocation{AllocEqual, AllocDiff4, AllocDiff2}
	rows, err := sweep.Run(o.workers(), len(allocs), func(i int) ([]FairnessRow, error) {
		return Fig10Fairness(allocs[i], o)
	}, o.sweepOpts()...)
	if err != nil {
		return nil, err
	}
	out := make(map[Allocation][]FairnessRow, len(allocs))
	for i, a := range allocs {
		out[a] = rows[i]
	}
	return out, nil
}

// Fig10Fairness reproduces Fig. 10: hotspot traffic (every node sends to
// node 63) at saturating injection, with equal or differentiated
// reservations; it reports per-region throughput summaries. The paper does
// not publish its differentiated weights; 3:2:2:1 (quadrants) and 3:1
// (halves) reproduce the reported throughput ratios.
func Fig10Fairness(alloc Allocation, o Options) ([]FairnessRow, error) {
	cfg := loftCfg(12)
	mesh := cfg.Mesh()
	hot := topo.NodeID(mesh.N() - 1)

	var weight func(topo.NodeID) int
	var region func(topo.NodeID) string
	switch alloc {
	case AllocEqual:
		weight = nil
		region = func(topo.NodeID) string { return "all" }
	case AllocDiff4:
		weight = traffic.QuadrantWeight(mesh, [4]int{3, 2, 2, 1})
		region = func(n topo.NodeID) string {
			c := mesh.Coord(n)
			q := 1
			if c.X >= mesh.K/2 {
				q++
			}
			if c.Y >= mesh.K/2 {
				q += 2
			}
			return fmt.Sprintf("R%d", q)
		}
	case AllocDiff2:
		weight = traffic.HalfWeight(mesh, 3, 1)
		region = func(n topo.NodeID) string {
			if mesh.Coord(n).X < mesh.K/2 {
				return "R1"
			}
			return "R2"
		}
	default:
		return nil, fmt.Errorf("exp: unknown allocation %q", alloc)
	}

	// Saturating offered load: every flow injects far above its share.
	p, err := traffic.Hotspot(mesh, hot, 0.5, cfg.PacketFlits, cfg.FrameFlits, cfg.QuantumFlits, weight)
	if err != nil {
		return nil, err
	}
	res, _, err := core.RunLOFT(cfg, p, o.runSpec())
	if err != nil {
		return nil, err
	}
	groups := make(map[string][]float64)
	order := []string{}
	for _, f := range p.Flows {
		r := region(f.Src)
		if _, seen := groups[r]; !seen {
			order = append(order, r)
		}
		groups[r] = append(groups[r], res.FlowRate[f.ID])
	}
	var rows []FairnessRow
	for _, r := range order {
		s := stats.Summarize(groups[r])
		rows = append(rows, FairnessRow{
			Region: r, Max: s.Max, Min: s.Min, Avg: s.Avg,
			StdevPct: s.Stdev * 100, Flows: s.N,
		})
	}
	return rows, nil
}
