// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark runs the corresponding experiment (in quick mode so the
// full suite completes in minutes) and reports its headline quantities as
// custom metrics. Run the full-fidelity versions with cmd/loftexp.
package loft

import (
	"testing"

	"loft/internal/analysis"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/exp"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// BenchmarkFig6FlowControl regenerates the Fig. 6 flow-control comparison:
// completion cycles for 4 back-to-back packets under wormhole, GSF and FRS.
func BenchmarkFig6FlowControl(b *testing.B) {
	var rows []exp.Fig6Row
	for i := 0; i < b.N; i++ {
		rows = setLast(rows, exp.Fig6FlowControl())
	}
	b.ReportMetric(float64(rows[0].DoneCycle), "wormhole-cycles")
	b.ReportMetric(float64(rows[1].DoneCycle), "gsf-cycles")
	b.ReportMetric(float64(rows[2].DoneCycle), "frs-cycles")
}

// BenchmarkFig10Fairness regenerates the Fig. 10 fairness tables (hotspot
// throughput allocation under equal and differentiated reservations).
func BenchmarkFig10Fairness(b *testing.B) {
	for _, alloc := range []exp.Allocation{exp.AllocEqual, exp.AllocDiff4, exp.AllocDiff2} {
		b.Run(string(alloc), func(b *testing.B) {
			var rows []exp.FairnessRow
			for i := 0; i < b.N; i++ {
				r, err := exp.Fig10Fairness(alloc, exp.Options{Seed: uint64(i + 1), Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				rows = r
			}
			b.ReportMetric(rows[0].Avg, "r1-avg-flits/cyc")
			b.ReportMetric(rows[0].StdevPct, "r1-stdev-pct")
			if len(rows) > 1 {
				b.ReportMetric(rows[0].Avg/rows[len(rows)-1].Avg, "r1/rN-ratio")
			}
		})
	}
}

// BenchmarkFig11Uniform regenerates Fig. 11a: the uniform-traffic load sweep
// for GSF and LOFT across speculative buffer sizes.
func BenchmarkFig11Uniform(b *testing.B) {
	var res *exp.Fig11Result
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig11("uniform", exp.Options{Seed: uint64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.Throughput["GSF"], "gsf-sat-flits/cyc/node")
	b.ReportMetric(last.Throughput["LOFT spec=12"], "loft12-sat-flits/cyc/node")
	b.ReportMetric(last.Throughput["LOFT spec=0"], "loft0-sat-flits/cyc/node")
}

// BenchmarkFig11Hotspot regenerates Fig. 11b: the hotspot-traffic load sweep.
func BenchmarkFig11Hotspot(b *testing.B) {
	var res *exp.Fig11Result
	for i := 0; i < b.N; i++ {
		r, err := exp.Fig11("hotspot", exp.Options{Seed: uint64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		res = r
	}
	last := res.Points[len(res.Points)-1]
	b.ReportMetric(last.Throughput["GSF"], "gsf-sat-flits/cyc/node")
	b.ReportMetric(last.Throughput["LOFT spec=8"], "loft8-sat-flits/cyc/node")
	b.ReportMetric(last.Latency["LOFT spec=8"], "loft8-latency-cyc")
}

// BenchmarkFig12CaseStudyI regenerates Fig. 12: per-flow latency and
// throughput under denial-of-service aggression, for both architectures.
func BenchmarkFig12CaseStudyI(b *testing.B) {
	for _, arch := range []core.Arch{core.ArchLOFT, core.ArchGSF} {
		b.Run(string(arch), func(b *testing.B) {
			var rows []exp.CaseIRow
			for i := 0; i < b.N; i++ {
				r, err := exp.Fig12CaseI(arch, exp.Options{Seed: uint64(i + 1), Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				rows = r
			}
			last := rows[len(rows)-1]
			b.ReportMetric(last.Latency[0], "victim-latency-cyc")
			b.ReportMetric(last.Latency[1], "aggressor-latency-cyc")
			b.ReportMetric(last.Throughput[0], "victim-flits/cyc")
			b.ReportMetric(last.Aggregate, "aggregate-flits/cyc")
		})
	}
}

// BenchmarkFig13CaseStudyII regenerates Fig. 13: grey vs stripped node
// throughput on the pathological pattern, for both architectures.
func BenchmarkFig13CaseStudyII(b *testing.B) {
	for _, arch := range []core.Arch{core.ArchLOFT, core.ArchGSF} {
		b.Run(string(arch), func(b *testing.B) {
			var rows []exp.CaseIIRow
			for i := 0; i < b.N; i++ {
				r, err := exp.Fig13CaseII(arch, exp.Options{Seed: uint64(i + 1), Quick: true})
				if err != nil {
					b.Fatal(err)
				}
				rows = r
			}
			last := rows[len(rows)-1]
			b.ReportMetric(last.Grey, "grey-flits/cyc")
			b.ReportMetric(last.Stripped, "stripped-flits/cyc")
		})
	}
}

// BenchmarkTable2Storage regenerates the Table 2 storage accounting.
func BenchmarkTable2Storage(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		g := analysis.GSFStorage(config.PaperGSF(), 64)
		l := analysis.LOFTStorage(config.PaperLOFT())
		saving = 1 - float64(l.Total)/float64(g.Total)
	}
	b.ReportMetric(saving*100, "loft-storage-saving-pct")
}

// BenchmarkDelayBounds validates the §5.3.1 worst-case latency bounds
// against observed maxima under heavy contention.
func BenchmarkDelayBounds(b *testing.B) {
	var rows []exp.DelayBoundRow
	for i := 0; i < b.N; i++ {
		r, err := exp.DelayBounds(exp.Options{Seed: uint64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		rows = r
	}
	for _, r := range rows {
		if r.Arch == "LOFT" {
			b.ReportMetric(float64(r.BoundCycles), "loft-bound-cyc")
			b.ReportMetric(float64(r.MaxObserved), "loft-observed-max-cyc")
			if !r.Holds {
				b.Fatalf("LOFT delay bound violated: %d > %d", r.MaxObserved, r.BoundCycles)
			}
		}
	}
}

// BenchmarkAblationYieldCondition compares hotspot fairness and utilization
// with the condition-(1)-derived yield policy on and off (DESIGN.md §5
// discusses why the default is off).
func BenchmarkAblationYieldCondition(b *testing.B) {
	for _, yield := range []bool{false, true} {
		name := "off"
		if yield {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var util float64
			for i := 0; i < b.N; i++ {
				cfg := config.PaperLOFT()
				cfg.YieldCondition = yield
				p := trafficHotspot(cfg)
				res, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: uint64(i + 1), Warmup: 2000, Measure: 6000})
				if err != nil {
					b.Fatal(err)
				}
				util = res.TotalRate
			}
			b.ReportMetric(util, "hotspot-utilization")
		})
	}
}

// BenchmarkAblationSpecBuffer sweeps the speculative buffer size on uniform
// traffic at light load (below the spec=0 configuration's regulated
// capacity, so all variants deliver), isolating §4.3.1's latency
// contribution.
func BenchmarkAblationSpecBuffer(b *testing.B) {
	for _, spec := range []int{0, 4, 12} {
		b.Run(map[int]string{0: "spec0", 4: "spec4", 12: "spec12"}[spec], func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				cfg := config.PaperLOFTSpec(spec)
				p := trafficUniform(cfg, 0.02)
				res, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: uint64(i + 1), Warmup: 2000, Measure: 6000})
				if err != nil {
					b.Fatal(err)
				}
				lat = res.AvgNetLatency
			}
			b.ReportMetric(lat, "net-latency-cyc")
		})
	}
}

func setLast[T any](_, v T) T { return v }

func trafficUniform(cfg config.LOFT, rate float64) *traffic.Pattern {
	return traffic.Uniform(cfg.Mesh(), rate, cfg.PacketFlits, cfg.FrameFlits)
}

func trafficHotspot(cfg config.LOFT) *traffic.Pattern {
	mesh := cfg.Mesh()
	return traffic.Hotspot(mesh, topo.NodeID(mesh.N()-1), 0.5, cfg.PacketFlits, cfg.FrameFlits, cfg.QuantumFlits, nil)
}

// BenchmarkScalability runs LOFT on growing meshes (the paper's motivation:
// LSF needs only local information exchange, so it should scale) and
// reports accepted throughput per node under uniform traffic at a fixed
// offered load.
func BenchmarkScalability(b *testing.B) {
	for _, k := range []int{4, 8, 12} {
		b.Run(map[int]string{4: "4x4", 8: "8x8", 12: "12x12"}[k], func(b *testing.B) {
			var perNode float64
			for i := 0; i < b.N; i++ {
				cfg := config.PaperLOFT()
				cfg.MeshK = k
				cfg.MaxFlows = k * k
				// The frame must hold one quantum per potentially
				// contending flow (ΣR ≤ F with k² flows per link).
				if need := 2 * k * k; cfg.FrameFlits < need {
					cfg.FrameFlits = 512
					cfg.CentralBufFlits = 512
				}
				p := trafficUniform(cfg, 0.05)
				res, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: uint64(i + 1), Warmup: 1000, Measure: 4000})
				if err != nil {
					b.Fatal(err)
				}
				perNode = res.TotalRate / float64(k*k)
			}
			b.ReportMetric(perNode, "accepted-flits/cyc/node")
		})
	}
}

// BenchmarkBurstyExtension exercises the frame window's burst absorption
// (§3.1 motivates WF>1 with bursty flows): an on/off flow at ~14% duty
// cycle should see no drops and burst-limited latency.
func BenchmarkBurstyExtension(b *testing.B) {
	var lat float64
	for i := 0; i < b.N; i++ {
		cfg := config.PaperLOFT()
		p := traffic.Bursty(cfg.Mesh(), 0, 63, 60, 400, cfg.PacketFlits, cfg.FrameFlits)
		res, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: uint64(i + 1), Warmup: 1000, Measure: 8000})
		if err != nil {
			b.Fatal(err)
		}
		if res.Drops > 0 {
			b.Fatalf("bursty flow dropped %d packets", res.Drops)
		}
		lat = res.AvgLatency
	}
	b.ReportMetric(lat, "burst-latency-cyc")
}

// BenchmarkCostOfQoS compares a plain best-effort wormhole network against
// GSF and LOFT on uniform traffic near saturation: what the guarantees cost
// in raw throughput (an ablation beyond the paper's own figures).
func BenchmarkCostOfQoS(b *testing.B) {
	lcfg := config.PaperLOFT()
	run := func(b *testing.B, f func(seed uint64) (core.Result, error)) {
		var thr float64
		for i := 0; i < b.N; i++ {
			res, err := f(uint64(i + 1))
			if err != nil {
				b.Fatal(err)
			}
			thr = res.TotalRate / 64
		}
		b.ReportMetric(thr, "accepted-flits/cyc/node")
	}
	spec := core.RunSpec{Warmup: 2000, Measure: 6000}
	b.Run("wormhole", func(b *testing.B) {
		run(b, func(seed uint64) (core.Result, error) {
			s := spec
			s.Seed = seed
			res, _, err := core.RunGSF(config.PaperWormhole(), trafficUniform(lcfg, 0.44), lcfg.FrameFlits, s)
			return res, err
		})
	})
	b.Run("gsf", func(b *testing.B) {
		run(b, func(seed uint64) (core.Result, error) {
			s := spec
			s.Seed = seed
			res, _, err := core.RunGSF(config.PaperGSF(), trafficUniform(lcfg, 0.44), lcfg.FrameFlits, s)
			return res, err
		})
	})
	b.Run("loft", func(b *testing.B) {
		run(b, func(seed uint64) (core.Result, error) {
			s := spec
			s.Seed = seed
			res, _, err := core.RunLOFT(lcfg, trafficUniform(lcfg, 0.44), s)
			return res, err
		})
	})
}
