package exp

import (
	"loft/internal/core"
	"loft/internal/sweep"
	"loft/internal/traffic"
)

// CaseIIRow is one injection-rate point of Fig. 13: the average accepted
// throughput (flits/cycle/node) of the grey nodes (column 0 sending to the
// central hotspot) and of the stripped node (sending to its uncontended
// nearest neighbor).
type CaseIIRow struct {
	Rate     float64
	Grey     float64
	Stripped float64
}

// Fig13CaseII reproduces Case Study II (§6.3b), the Fig. 1 pathological
// pattern with equal reservations for all flows. The paper's claim: GSF's
// globally-synchronized frame recycling throttles the stripped node along
// with the grey nodes, while LOFT's local status reset lets the stripped
// node exploit its private bandwidth.
func Fig13CaseII(arch core.Arch, o Options) ([]CaseIIRow, error) {
	rates := []float64{0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 0.95}
	if o.Quick {
		rates = []float64{0.02, 0.16, 0.95}
	}
	cfg := loftCfg(12)
	return sweep.Run(o.workers(), len(rates), func(i int) (CaseIIRow, error) {
		rate := rates[i]
		p := traffic.CaseStudyII(cfg.Mesh(), rate, cfg.PacketFlits, cfg.FrameFlits)
		res, err := core.Run(arch, cfg, p, o.runSpec())
		if err != nil {
			return CaseIIRow{}, err
		}
		row := CaseIIRow{Rate: rate}
		grey := traffic.CaseStudyIIGrey(p)
		for _, id := range grey {
			row.Grey += res.FlowRate[id]
		}
		row.Grey /= float64(len(grey))
		row.Stripped = res.FlowRate[traffic.CaseStudyIIStripped(p)]
		return row, nil
	}, o.sweepOpts()...)
}
