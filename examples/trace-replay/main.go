// Trace replay: run a recorded workload through both architectures and
// compare. The example generates a reproducible synthetic trace (standing
// in for a captured application trace — see DESIGN.md §5 on substitutions),
// writes it to disk in the loftsim trace format, reads it back, and replays
// it through LOFT and GSF.
package main

import (
	"bytes"
	"fmt"
	"log"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/traffic"
)

func main() {
	cfg := config.PaperLOFT()
	mesh := cfg.Mesh()

	// 400 packets over 8000 cycles with uniform random endpoints.
	events := traffic.SyntheticTrace(mesh, 400, 8000, cfg.PacketFlits, 99)

	// Round-trip through the on-disk format (cycle src dst flits).
	var buf bytes.Buffer
	if err := traffic.WriteTrace(&buf, events); err != nil {
		log.Fatal(err)
	}
	parsed, err := traffic.ParseTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace: %d packets, horizon %d cycles\n", len(parsed), parsed[len(parsed)-1].Cycle)

	spec := core.RunSpec{Seed: 1, Warmup: 0, Measure: 20000}
	for _, arch := range []core.Arch{core.ArchLOFT, core.ArchGSF} {
		p, err := traffic.FromTrace(mesh, parsed, cfg.PacketFlits, cfg.FrameFlits, cfg.QuantumFlits)
		if err != nil {
			log.Fatal(err)
		}
		res, err := core.Run(arch, cfg, p, spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] delivered %d/%d packets, avg latency %.1f cycles (p99 %.0f)\n",
			arch, res.Packets, len(parsed), res.AvgLatency, res.P99Latency)
	}
}
