// Bandwidth partitioning (Fig. 10): differentiated service on a hotspot.
// The mesh is split into regions with weighted frame reservations and every
// node blasts the hotspot; accepted throughput follows the configured
// weights — QoS allocation, not arbitration luck.
package main

import (
	"fmt"
	"log"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/stats"
	"loft/internal/topo"
	"loft/internal/traffic"
)

func main() {
	cfg := config.PaperLOFT()
	mesh := cfg.Mesh()
	hot := topo.NodeID(mesh.N() - 1)

	// Two halves with a 3:1 bandwidth split (Fig. 10c).
	pattern, err := traffic.Hotspot(mesh, hot, 0.5, cfg.PacketFlits, cfg.FrameFlits,
		cfg.QuantumFlits, traffic.HalfWeight(mesh, 3, 1))
	if err != nil {
		log.Fatal(err)
	}

	res, _, err := core.RunLOFT(cfg, pattern, core.RunSpec{Seed: 3, Warmup: 5000, Measure: 20000})
	if err != nil {
		log.Fatal(err)
	}

	var left, right []float64
	for _, f := range pattern.Flows {
		if mesh.Coord(f.Src).X < mesh.K/2 {
			left = append(left, res.FlowRate[f.ID])
		} else {
			right = append(right, res.FlowRate[f.ID])
		}
	}
	l, r := stats.Summarize(left), stats.Summarize(right)
	fmt.Println("Differentiated allocation: left half weight 3, right half weight 1,")
	fmt.Println("all 63 nodes saturating hotspot node 63")
	fmt.Printf("  %-6s %8s %8s %8s %8s\n", "region", "MAX", "MIN", "AVG", "STDEV%")
	fmt.Printf("  %-6s %8.4f %8.4f %8.4f %7.1f%%\n", "R1(3x)", l.Max, l.Min, l.Avg, l.Stdev*100)
	fmt.Printf("  %-6s %8.4f %8.4f %8.4f %7.1f%%\n", "R2(1x)", r.Max, r.Min, r.Avg, r.Stdev*100)
	fmt.Printf("  achieved ratio R1/R2 = %.2f (configured 3.0)\n", l.Avg/r.Avg)
	fmt.Printf("  hotspot link utilization = %.1f%%\n", 100*res.TotalRate)
}
