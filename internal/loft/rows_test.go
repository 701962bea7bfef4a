package loft

import (
	"testing"

	"loft/internal/config"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// liveRows counts the input reservation rows node n holds live: the entries
// on its five ports' slab chains.
func liveRows(n *Node) int {
	rows := 0
	for d := range n.inputs {
		for _, head := range n.inputs[d].ring {
			for e := head; e != nil; e = e.next {
				rows++
			}
		}
	}
	return rows
}

// TestEntryRowsHighWater pins the input reservation rows of the paper
// configuration at the three loads that hold the most of them: uniform
// traffic at 0.6, Fig. 10's hotspot at 0.5 and Case Study II at 0.95. It
// logs the largest number of rows any node held live at the end of a cycle
// and fails if any row came from the heap (Node.allocSlow), so a pool sized
// below what these workloads hold shows here.
func TestEntryRowsHighWater(t *testing.T) {
	cfg := config.PaperLOFT()
	m := cfg.Mesh()
	for _, c := range []struct {
		name string
		p    *traffic.Pattern
	}{
		{"uniform-0.6", traffic.Uniform(m, 0.6, cfg.PacketFlits, cfg.FrameFlits)},
		{"hotspot-0.5", hotspot(t, cfg, 0.5)},
		{"case2-0.95", traffic.CaseStudyII(m, 0.95, cfg.PacketFlits, cfg.FrameFlits)},
	} {
		t.Run(c.name, func(t *testing.T) {
			net := mustNet(t, cfg, c.p, 1, 0)
			const cycles = 12000
			high, at := 0, topo.NodeID(0)
			for c := 0; c < cycles; c++ {
				net.Run(1)
				for _, n := range net.nodes {
					if rows := liveRows(n); rows > high {
						high, at = rows, n.id
					}
				}
			}
			t.Logf("per-node high-water mark: %d rows (node %d)", high, at)
			for _, n := range net.nodes {
				if n.heapRows != 0 {
					t.Errorf("node %d took %d rows from the heap", n.id, n.heapRows)
				}
			}
		})
	}
}

// TestHeapRowsKeepBehaviour runs the overflow path: with every node's pool
// emptied before the run, each entry comes from Node.allocSlow until retired
// ones refill the free list, and the run must match one on pooled entries.
func TestHeapRowsKeepBehaviour(t *testing.T) {
	cfg := smallCfg(12)
	p := traffic.Uniform(cfg.Mesh(), 0.4, cfg.PacketFlits, cfg.FrameFlits)
	pooled, drained := mustNet(t, cfg, p, 1, 0), mustNet(t, cfg, p, 1, 0)
	for _, n := range drained.nodes {
		n.free = nil
	}
	const cycles = 3000
	pooled.Run(cycles)
	drained.Run(cycles)
	heap := 0
	for _, n := range drained.nodes {
		heap += n.heapRows
	}
	if heap == 0 {
		t.Fatal("no entry came from the heap")
	}
	if a, b := pooled.TotalStats(), drained.TotalStats(); a != b {
		t.Errorf("heap entries changed the run:\npooled  %+v\ndrained %+v", a, b)
	}
	if a, b := pooled.Latency().Mean(), drained.Latency().Mean(); a != b {
		t.Errorf("mean latency %v pooled, %v drained", a, b)
	}
}
