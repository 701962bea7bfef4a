package analysis

import (
	"testing"

	"loft/internal/config"
	"loft/internal/flit"
	"loft/internal/topo"
)

func TestFlowBoundsLOFT(t *testing.T) {
	cfg := config.PaperLOFT()
	m := cfg.Mesh()
	flows := []flit.Flow{
		{ID: 0, Src: 0, Dst: topo.NodeID(m.N() - 1)}, // corner to corner: 14 hops
		{ID: 1, Src: 0, Dst: 1},                      // one hop
		{ID: 2, Src: 5, Dst: -1},                     // random destination: diameter
	}
	bounds := make([]uint64, len(flows))
	for i, f := range flows {
		bounds[i] = DelayBoundLOFTPath(cfg, FlowHops(m, f))
	}
	perTable := uint64(cfg.FrameFlits) * uint64(cfg.FrameWindow) // 512 cycles
	if got, want := bounds[0], perTable*16; got != want {
		t.Errorf("corner-to-corner bound = %d, want %d", got, want)
	}
	if got, want := bounds[1], perTable*3; got != want {
		t.Errorf("one-hop bound = %d, want %d", got, want)
	}
	if bounds[2] != bounds[0] {
		t.Errorf("random-destination bound = %d, want diameter bound %d", bounds[2], bounds[0])
	}
	if DelayBoundLOFTPath(cfg, 14) != DelayBoundLOFT(cfg, 16) {
		t.Error("DelayBoundLOFTPath must add the injection and ejection tables")
	}
}
