// DoS isolation (Case Study I, §6.3a): a regulated victim flow shares the
// hotspot with two aggressors that inject far beyond their allocation. The
// example runs both LOFT and GSF and shows that LOFT keeps the victim's
// latency nearly flat while GSF lets the aggressors degrade it.
package main

import (
	"fmt"
	"log"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/traffic"
)

func main() {
	lcfg := config.PaperLOFT()
	spec := core.RunSpec{Seed: 7, Warmup: 3000, Measure: 12000}
	rates := []float64{0.1, 0.4, 0.8}

	fmt.Println("Case Study I: flows 0→63 (victim, 0.2 f/c), 48→63 and 56→63 (aggressors)")
	fmt.Println("each allocated 1/4 of the hotspot link bandwidth")
	for _, arch := range []core.Arch{core.ArchGSF, core.ArchLOFT} {
		fmt.Printf("\n[%s]\n", arch)
		fmt.Printf("  %-9s %16s %16s %10s\n", "agg rate", "victim lat (cyc)", "agg lat (cyc)", "victim f/c")
		for _, rate := range rates {
			p := traffic.CaseStudyI(lcfg.Mesh(), 0.2, rate, lcfg.PacketFlits, lcfg.FrameFlits)
			res, err := core.Run(arch, lcfg, p, spec)
			if err != nil {
				log.Fatal(err)
			}
			victim := p.Flows[traffic.CaseStudyIVictim]
			agg := p.Flows[traffic.CaseStudyIAggressor1]
			fmt.Printf("  %-9.1f %16.1f %16.1f %10.4f\n",
				rate, res.FlowLatency[victim.ID], res.FlowLatency[agg.ID], res.FlowRate[victim.ID])
		}
	}
	fmt.Println("\nLOFT's frame reservations cap the aggressors at their share and keep")
	fmt.Println("the victim's latency flat; GSF's global frame recycling lets the")
	fmt.Println("aggressors slow everyone down (§6.3, Fig. 12).")
}
