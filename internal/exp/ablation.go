package exp

import (
	"fmt"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/sweep"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// AblationRow is one variant of one ablation study: a single knob turned,
// every other setting the paper's.
type AblationRow struct {
	Study, Variant string
	// Accepted is the accepted throughput in flits/cycle/node; Total sums
	// it over the mesh.
	Accepted, Total float64
	// Latency is the average total packet latency (source queueing
	// included), NetLatency the average from network injection, in cycles,
	// over the Packets packets created after warm-up and delivered; with
	// none, both read 0 and mean nothing.
	Latency, NetLatency float64
	Packets             uint64
	// Drops counts packets lost at the source (NI or source queue).
	Drops uint64
}

// ablationJob is one simulation of Ablations: LOFT as configured by cfg,
// or, when gsf is set, that GSF configuration with cfg's frame size.
type ablationJob struct {
	study, variant string
	cfg            config.LOFT
	gsf            *config.GSF
	p              *traffic.Pattern
}

// Ablations runs the studies beyond the paper's own figures, one simulation
// per variant, at the experiment fidelity:
//   - yield: hotspot at 0.5 with the condition-(1) yield policy off and on
//     (DESIGN.md §5a discusses why the default is off);
//   - spec: uniform at 0.02 with speculative buffers of 0, 4 and 12 flits,
//     isolating §4.3.1's network-latency contribution (spec=0 is held to
//     its reservation, F/64 = 0.0156 flits/cycle, so its source queues
//     grow; network latency excludes them);
//   - mesh: uniform at 0.05 on 4×4, 8×8 and 12×12 meshes (LSF exchanges only
//     local state, so per-node throughput should hold as the mesh grows);
//   - bursty: one on/off flow 0→63 at about 14% duty cycle, the bursts the
//     frame window absorbs (§3.1);
//   - qos: best-effort wormhole, GSF and LOFT on uniform traffic at 0.44,
//     near saturation: what the guarantees cost in raw throughput.
//
// The studies differ in mesh and architecture, so no one fault plan fits
// them: o.Fault is ignored.
func Ablations(o Options) ([]AblationRow, error) {
	uniform := func(cfg config.LOFT, rate float64) *traffic.Pattern {
		return traffic.Uniform(cfg.Mesh(), rate, cfg.PacketFlits, cfg.FrameFlits)
	}
	var jobs []ablationJob
	for _, variant := range []string{"off", "on"} {
		cfg := loftCfg(12)
		cfg.YieldCondition = variant == "on"
		mesh := cfg.Mesh()
		p, err := traffic.Hotspot(mesh, topo.NodeID(mesh.N()-1), 0.5, cfg.PacketFlits, cfg.FrameFlits, cfg.QuantumFlits, nil)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, ablationJob{"yield", variant, cfg, nil, p})
	}
	for _, s := range []int{0, 4, 12} {
		cfg := loftCfg(s)
		jobs = append(jobs, ablationJob{"spec", fmt.Sprintf("spec=%d", s), cfg, nil, uniform(cfg, 0.02)})
	}
	for _, k := range []int{4, 8, 12} {
		cfg := loftCfg(12)
		cfg.MeshK, cfg.MaxFlows = k, k*k
		// The frame must hold one quantum per potentially contending flow
		// (ΣR ≤ F with k² flows per link).
		if 2*k*k > cfg.FrameFlits {
			cfg.FrameFlits, cfg.CentralBufFlits = 512, 512
		}
		jobs = append(jobs, ablationJob{"mesh", fmt.Sprintf("%dx%d", k, k), cfg, nil, uniform(cfg, 0.05)})
	}
	cfg, wormhole, gsf := loftCfg(12), config.PaperWormhole(), gsfCfg()
	jobs = append(jobs,
		ablationJob{"bursty", "0->63 60/400", cfg, nil, traffic.Bursty(cfg.Mesh(), 0, 63, 60, 400, cfg.PacketFlits, cfg.FrameFlits)},
		ablationJob{"qos", "wormhole", cfg, &wormhole, uniform(cfg, 0.44)},
		ablationJob{"qos", "GSF", cfg, &gsf, uniform(cfg, 0.44)},
		ablationJob{"qos", "LOFT", cfg, nil, uniform(cfg, 0.44)})

	spec := o.runSpec()
	spec.Fault = nil
	return sweep.Run(o.workers(), len(jobs), func(i int) (AblationRow, error) {
		j := jobs[i]
		var res core.Result
		var err error
		if j.gsf != nil {
			res, _, err = core.RunGSF(*j.gsf, j.p, j.cfg.FrameFlits, spec)
		} else {
			res, _, err = core.RunLOFT(j.cfg, j.p, spec)
		}
		if err != nil {
			return AblationRow{}, fmt.Errorf("%s %s: %w", j.study, j.variant, err)
		}
		return AblationRow{
			Study: j.study, Variant: j.variant,
			Accepted: res.TotalRate / float64(j.cfg.Mesh().N()), Total: res.TotalRate,
			Latency: res.AvgLatency, NetLatency: res.AvgNetLatency, Packets: res.Packets, Drops: res.Drops,
		}, nil
	}, o.sweepOpts()...)
}
