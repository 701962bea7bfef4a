package analysis

import (
	"loft/internal/config"
	"loft/internal/flit"
	"loft/internal/route"
	"loft/internal/topo"
)

// PathTables returns the number of framed reservation tables a flow's
// quanta are scheduled through on an XY path with the given router-to-router
// hop count: the injection link's table, one per mesh link, and the
// ejection link's table.
func PathTables(numHops int) int { return numHops + 2 }

// DelayBoundLOFTPath is the per-flow §5.3.1 delay bound applied to the full
// implemented path. Theorem I bounds the wait at each framed table by one
// frame window (F·WF flit times); the paper's eq. 2 counts the router-to-
// router hops only, while the implementation also schedules the injection
// and ejection links through LSF tables, so the constructive per-flow bound
// used by the runtime auditor spans numHops+2 tables.
func DelayBoundLOFTPath(cfg config.LOFT, numHops int) uint64 {
	return DelayBoundLOFT(cfg, PathTables(numHops))
}

// FlowHops returns the XY router-to-router hop count of a flow, or the mesh
// diameter when the flow has no fixed destination (Dst < 0, e.g. uniform
// traffic picks a fresh destination per packet).
func FlowHops(m topo.Mesh, f flit.Flow) int {
	if f.Dst < 0 || int(f.Dst) >= m.N() {
		return 2 * (m.K - 1)
	}
	return route.Hops(m, f.Src, f.Dst)
}
