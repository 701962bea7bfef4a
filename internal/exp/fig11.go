package exp

import (
	"fmt"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/sweep"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// LoadPoint is one x-position of a Fig. 11 curve: per-architecture average
// network packet latency (cycles) and accepted throughput
// (flits/cycle/node) at one offered load.
type LoadPoint struct {
	Load       float64
	Latency    map[string]float64
	Throughput map[string]float64
}

// Fig11Result bundles one Fig. 11 panel.
type Fig11Result struct {
	Pattern string
	Archs   []string
	Points  []LoadPoint
	// SaturationThroughput is each architecture's accepted throughput at
	// the highest offered load, normalized to GSF (the paper's right-hand
	// bar chart).
	SaturationThroughput map[string]float64
}

// Fig11 reproduces Fig. 11: average packet latency against offered load and
// total accepted throughput for (a) uniform and (b) hotspot traffic, for
// GSF and LOFT with the paper's speculative buffer sweeps ({0,4,8,12,16}
// uniform, {0,2,4,6,8} hotspot).
func Fig11(pattern string, o Options) (*Fig11Result, error) {
	var loads []float64
	var specs []int
	switch pattern {
	case "uniform":
		loads = []float64{0.02, 0.08, 0.14, 0.2, 0.26, 0.32, 0.38, 0.44, 0.5, 0.56, 0.62, 0.68}
		specs = []int{0, 4, 8, 12, 16}
	case "hotspot":
		loads = []float64{0.001, 0.003, 0.005, 0.007, 0.009, 0.011, 0.013, 0.015, 0.017}
		specs = []int{0, 2, 4, 6, 8}
	default:
		return nil, fmt.Errorf("exp: unknown Fig 11 pattern %q", pattern)
	}
	if o.Quick {
		loads = thin(loads, 2)
	}
	return fig11Grid(pattern, loads, specs, o)
}

// fig11Grid runs one Fig. 11 panel over an explicit grid: GSF plus LOFT at
// every speculative buffer size in specs, at every offered load in loads.
func fig11Grid(pattern string, loads []float64, specs []int, o Options) (*Fig11Result, error) {
	res := &Fig11Result{
		Pattern:              pattern,
		Archs:                []string{"GSF"},
		SaturationThroughput: make(map[string]float64),
	}
	for _, s := range specs {
		res.Archs = append(res.Archs, archLabel(core.ArchLOFT, s))
	}
	// Invariant inputs, hoisted out of the sweep: the base config, the
	// per-spec configs, the node count, and one traffic pattern per load
	// point. Patterns are read-only during runs, so every architecture at a
	// load point shares the same one.
	cfg := loftCfg(12)
	nodes := float64(cfg.Mesh().N())
	specCfgs := make([]config.LOFT, len(specs))
	for i, s := range specs {
		specCfgs[i] = loftCfg(s)
	}
	patterns := make([]*traffic.Pattern, len(loads))
	for i, load := range loads {
		p, err := fig11Pattern(cfg, pattern, load)
		if err != nil {
			return nil, err
		}
		patterns[i] = p
	}
	// One job per (load, architecture) cell; arch 0 is GSF, arch k is
	// LOFT spec=specs[k-1].
	archs := 1 + len(specs)
	type cell struct{ lat, thr float64 }
	cells, err := sweep.Run(o.workers(), len(loads)*archs, func(i int) (cell, error) {
		arch, lcfg := core.ArchGSF, cfg
		if a := i % archs; a > 0 {
			arch, lcfg = core.ArchLOFT, specCfgs[a-1]
		}
		r, err := core.Run(arch, lcfg, patterns[i/archs], o.runSpec())
		if err != nil {
			return cell{}, err
		}
		return cell{lat: r.AvgNetLatency, thr: r.TotalRate / nodes}, nil
	}, o.sweepOpts()...)
	if err != nil {
		return nil, err
	}
	for li, load := range loads {
		pt := LoadPoint{
			Load:       load,
			Latency:    make(map[string]float64),
			Throughput: make(map[string]float64),
		}
		for ai, label := range res.Archs {
			c := cells[li*archs+ai]
			pt.Latency[label] = c.lat
			pt.Throughput[label] = c.thr
		}
		res.Points = append(res.Points, pt)
	}
	last := res.Points[len(res.Points)-1]
	gsfThr := last.Throughput["GSF"]
	for _, a := range res.Archs {
		if gsfThr > 0 {
			res.SaturationThroughput[a] = last.Throughput[a] / gsfThr
		}
	}
	return res, nil
}

func fig11Pattern(cfg config.LOFT, pattern string, load float64) (*traffic.Pattern, error) {
	mesh := cfg.Mesh()
	switch pattern {
	case "uniform":
		return traffic.Uniform(mesh, load, cfg.PacketFlits, cfg.FrameFlits), nil
	case "hotspot":
		hot := topo.NodeID(mesh.N() - 1)
		return traffic.Hotspot(mesh, hot, load, cfg.PacketFlits, cfg.FrameFlits, cfg.QuantumFlits, nil)
	}
	return nil, fmt.Errorf("exp: unknown pattern %q", pattern)
}

// thin keeps every k-th element (plus the last).
func thin(xs []float64, k int) []float64 {
	var out []float64
	for i := 0; i < len(xs); i += k {
		out = append(out, xs[i])
	}
	if out[len(out)-1] != xs[len(xs)-1] {
		out = append(out, xs[len(xs)-1])
	}
	return out
}
