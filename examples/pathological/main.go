// Pathological isolation (Fig. 1 / Case Study II): column-0 nodes hammer a
// central hotspot while one "stripped" node talks only to its uncontended
// neighbor. Under GSF the stripped node is dragged down by the global frame
// recycling it shares with the congested flows; LOFT's local status reset
// lets it run at link speed.
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
	spec := core.RunSpec{Seed: 5, Warmup: 3000, Measure: 12000}
	rates := []float64{0.04, 0.16, 0.64, 0.95}

	fmt.Println("Case Study II: grey nodes (column 0) → center hotspot;")
	fmt.Println("stripped node → nearest neighbor over a private link")
	fmt.Printf("\n%-9s | %-23s | %-23s\n", "", "GSF", "LOFT")
	fmt.Printf("%-9s | %10s %12s | %10s %12s\n", "inj rate", "grey f/c", "stripped f/c", "grey f/c", "stripped f/c")
	for _, rate := range rates {
		row := fmt.Sprintf("%-9.2f", rate)
		for _, arch := range []core.Arch{core.ArchGSF, core.ArchLOFT} {
			p := traffic.CaseStudyII(lcfg.Mesh(), rate, lcfg.PacketFlits, lcfg.FrameFlits)
			res, err := core.Run(arch, lcfg, p, spec)
			if err != nil {
				log.Fatal(err)
			}
			var grey float64
			ids := traffic.CaseStudyIIGrey(p)
			for _, id := range ids {
				grey += res.FlowRate[id]
			}
			grey /= float64(len(ids))
			stripped := res.FlowRate[traffic.CaseStudyIIStripped(p)]
			row += fmt.Sprintf(" | %10.4f %12.4f", grey, stripped)
		}
		fmt.Println(row)
	}
	fmt.Println("\nThe stripped node shares no link with the grey flows, yet GSF throttles")
	fmt.Println("it to the hotspot's pace; LOFT isolates it (§6.3b, Fig. 13).")
}
