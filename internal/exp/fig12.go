package exp

import (
	"loft/internal/core"
	"loft/internal/sweep"
	"loft/internal/traffic"
)

// CaseIRow is one aggressor-rate point of Fig. 12: per-flow average total
// packet latency (cycles, source queueing included) and accepted throughput
// (flits/cycle/node) for the regulated victim (node 0) and the two
// aggressors (nodes 48 and 56), all sending to hotspot node 63.
type CaseIRow struct {
	AggressorRate float64
	// Latency and Throughput are indexed victim, aggressor48, aggressor56.
	Latency    [3]float64
	Throughput [3]float64
	// Aggregate is the total accepted throughput of the three flows.
	Aggregate float64
}

// Fig12CaseI reproduces Case Study I (§6.3a), the denial-of-service
// scenario: each flow is allocated 1/4 of the link bandwidth, the victim
// injects at a constant 0.2 flits/cycle, and the aggressors sweep their
// injection rate. The paper's claim: under GSF the victim's latency
// explodes with aggressor rate while under LOFT it stays nearly flat and
// the aggressors are the ones penalized.
func Fig12CaseI(arch core.Arch, o Options) ([]CaseIRow, error) {
	rates := []float64{0.1, 0.2, 0.4, 0.6, 0.8}
	if o.Quick {
		rates = []float64{0.1, 0.4, 0.8}
	}
	cfg := loftCfg(12)
	return sweep.Run(o.workers(), len(rates), func(i int) (CaseIRow, error) {
		rate := rates[i]
		p := traffic.CaseStudyI(cfg.Mesh(), 0.2, rate, cfg.PacketFlits, cfg.FrameFlits)
		res, err := core.Run(arch, cfg, p, o.runSpec())
		if err != nil {
			return CaseIRow{}, err
		}
		row := CaseIRow{AggressorRate: rate}
		for j, id := range []int{0, 1, 2} {
			row.Throughput[j] = res.FlowRate[p.Flows[id].ID]
			row.Latency[j] = res.FlowLatency[p.Flows[id].ID]
			row.Aggregate += row.Throughput[j]
		}
		return row, nil
	}, o.sweepOpts()...)
}
