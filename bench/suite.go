package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"loft/internal/core"
	"loft/internal/exp"
)

// suiteCellCycles is what one quick cell simulates: exp's quick RunSpec is
// 2000 warm-up + 6000 measured cycles, and exp does not export it.
const (
	suiteCellCycles  = 8000
	suiteCellMeasure = 6000
)

// paperFig10 are the region averages the paper reports for Fig. 10 (a), (b)
// and (c), as EXPERIMENTS.md reads them.
var paperFig10 = []struct {
	alloc exp.Allocation
	avg   []float64
}{
	{exp.AllocEqual, []float64{0.0156}},
	{exp.AllocDiff4, []float64{0.0199, 0.0154, 0.0147, 0.0078}},
	{exp.AllocDiff2, []float64{0.0226, 0.0078}},
}

// suiteRows is everything the suite produced, in the shape exp returns it.
type suiteRows struct {
	Fig10  map[exp.Allocation][]exp.FairnessRow
	Fig11b *exp.Fig11Result
	Fig12  map[core.Arch][]exp.CaseIRow
	Fig13  map[core.Arch][]exp.CaseIIRow
	Bounds []exp.DelayBoundRow
}

// experiment is one exp call of the suite; its name is its span name and the
// exp.<name>_s per-layer metric.
type experiment struct {
	name string
	run  func(o exp.Options, rows *suiteRows) error
}

var bounds = experiment{"bounds", func(o exp.Options, rows *suiteRows) (err error) {
	rows.Bounds, err = exp.DelayBounds(o)
	return err
}}

// experiments is the paper suite as `loftexp -quick` runs it, minus Fig. 11a,
// whose cells are the three steady-state workloads. The short list keeps only
// what the correctness checks and paper_error_pct read.
func experiments(short bool) []experiment {
	bothArchs := func(run func(core.Arch, exp.Options, *suiteRows) error) func(exp.Options, *suiteRows) error {
		return func(o exp.Options, rows *suiteRows) error {
			for _, a := range []core.Arch{core.ArchLOFT, core.ArchGSF} {
				if err := run(a, o, rows); err != nil {
					return err
				}
			}
			return nil
		}
	}
	fig10 := experiment{"fig10", func(o exp.Options, rows *suiteRows) (err error) {
		rows.Fig10, err = exp.Fig10All(o)
		return err
	}}
	if short {
		return []experiment{fig10, bounds}
	}
	return []experiment{
		fig10,
		{"fig11b", func(o exp.Options, rows *suiteRows) (err error) {
			rows.Fig11b, err = exp.Fig11("hotspot", o)
			return err
		}},
		{"fig12", bothArchs(func(a core.Arch, o exp.Options, rows *suiteRows) (err error) {
			rows.Fig12[a], err = exp.Fig12CaseI(a, o)
			return err
		})},
		{"fig13", bothArchs(func(a core.Arch, o exp.Options, rows *suiteRows) (err error) {
			rows.Fig13[a], err = exp.Fig13CaseII(a, o)
			return err
		})},
		bounds,
	}
}

// suite is the suite_quick workload.
type suite struct {
	short   bool
	workers int // sweep pool size
}

// cellHeap reads the heap as each cell of the suite finishes. exp builds and
// frees every cell's network inside its pool, so once the suite is done only
// its rows are left; what a user's machine has to hold is the networks in
// flight. /gc/heap/live:bytes is the live heap the collector last found, read
// without stopping the pool, and the mean over the cells holds still where
// the peak depends on which cells happen to overlap.
type cellHeap struct {
	mu     sync.Mutex
	sample [1]metrics.Sample
	sumMB  float64
	cells  int
}

// finished is the exp.Options.Progress callback; sweep may call it from
// several workers.
func (h *cellHeap) finished(int, int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	metrics.Read(h.sample[:])
	h.sumMB += float64(h.sample[0].Value.Uint64()) / (1 << 20)
	h.cells++
}

func (w suite) rep(c *runCtx) (repResult, error) {
	res := repResult{phase: map[string]time.Duration{}, layer: layerSet{}}
	rows := suiteRows{Fig12: map[core.Arch][]exp.CaseIRow{}, Fig13: map[core.Arch][]exp.CaseIIRow{}}
	heap := cellHeap{sample: [1]metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
	o := exp.Options{Seed: c.seed, Quick: true, Workers: w.workers}
	runtime.GC()
	m0 := mallocs()
	cpu0 := cpuSeconds()

	// Set-up is the experiment list plus one untimed pass over the delay
	// bound experiment, so the pool, the heap and the caches are warm when
	// the timed suite starts; exp builds patterns and networks inside its
	// cells, where the benchmark cannot time them apart.
	var list []experiment
	var err error
	res.phase["setup"] = c.tr.timed("setup", func() {
		list = experiments(w.short)
		c.tr.timed("warmup", func() { err = bounds.run(o, &suiteRows{}) })
	})
	if err != nil {
		return res, err
	}
	o.Progress = heap.finished

	res.phase["measure"] = c.tr.timed("measure", func() {
		for _, e := range list {
			res.phase[e.name] = c.tr.timed("exp."+e.name, func() { err = e.run(o, &rows) })
			if err != nil {
				err = fmt.Errorf("%s: %w", e.name, err)
				return
			}
		}
	})
	if err != nil {
		return res, err
	}
	var sim suiteSim
	res.phase["summarize"] = c.tr.timed("summarize", func() { sim = rows.simulated() })
	allocs := mallocs() - m0
	res.layer.set("sweep.cpu_s", cpuSeconds()-cpu0)

	if res.digest, err = digest(rows); err != nil {
		return res, err
	}
	res.cycles = uint64(heap.cells) * suiteCellCycles
	wall := res.phase["setup"] + res.phase["measure"] + res.phase["summarize"]
	res.e2e = map[string]float64{
		"setup_s":                       res.phase["setup"].Seconds(),
		"wall_s":                        wall.Seconds(),
		"sim_cycles_per_s":              float64(res.cycles) / res.phase["measure"].Seconds(),
		"host_us_per_flit":              res.phase["measure"].Seconds() * 1e6 / sim.flits,
		"live_heap_mb":                  heap.sumMB / float64(heap.cells),
		"allocs_per_kcycle":             float64(allocs) / (float64(res.cycles) / 1000),
		"accepted_flits_per_cycle_node": sim.accepted,
		"avg_latency_cycles":            sim.avgLatency,
	}
	res.layer.set("exp.cells", float64(heap.cells))
	res.layer.set("exp.bound_ratio", sim.boundRatio)
	res.layer.set("paper_error_pct", sim.paperErrorPct)
	if !sim.boundHolds {
		return res, fmt.Errorf("exp.DelayBounds: LOFT observed maximum exceeds the analytical bound (ratio %.3f)", sim.boundRatio)
	}
	return res, nil
}

// suiteSim is the simulated side of one suite rep, read off the rows.
type suiteSim struct {
	// flits, accepted and avgLatency are taken over the cells that report
	// network-wide figures: the Fig. 11b cells, or the Fig. 10 cells when
	// the short list leaves Fig. 11b out. The light cells deliver a hundred
	// packets each and the saturated cells' latency means are all queueing,
	// so both move with the seed: accepted is read where the hot node's
	// ejection port is the limit, latency as the median over the cells.
	flits      float64 // flits delivered in those cells' measured cycles
	accepted   float64 // accepted flits/cycle/node at the highest offered load, mean over the architectures
	avgLatency float64 // median of the cells' average network latency

	boundRatio    float64
	boundHolds    bool
	paperErrorPct float64
}

func (rows *suiteRows) simulated() suiteSim {
	var s suiteSim
	const nodes = 64
	if f := rows.Fig11b; f != nil {
		var lats []float64
		for _, pt := range f.Points {
			for _, a := range f.Archs {
				s.flits += pt.Throughput[a] * nodes * suiteCellMeasure
				lats = append(lats, pt.Latency[a])
			}
		}
		s.avgLatency = median(lats)
		last := f.Points[len(f.Points)-1]
		for _, a := range f.Archs {
			s.accepted += last.Throughput[a] / float64(len(f.Archs))
		}
	} else {
		// Fig. 10 reports per-flow throughput only; latency falls back to
		// the delay-bound row's observed maximum below.
		for _, paper := range paperFig10 {
			for _, r := range rows.Fig10[paper.alloc] {
				s.flits += r.Avg * float64(r.Flows) * suiteCellMeasure
			}
		}
		s.accepted = s.flits / float64(len(paperFig10)) / nodes / suiteCellMeasure
	}
	for _, b := range rows.Bounds {
		if b.Arch == "LOFT" {
			if s.avgLatency == 0 {
				s.avgLatency = float64(b.MaxObserved)
			}
			s.boundRatio = float64(b.MaxObserved) / float64(b.BoundCycles)
			s.boundHolds = b.Holds
		}
	}
	n := 0
	for _, paper := range paperFig10 {
		for i, r := range rows.Fig10[paper.alloc] {
			if i < len(paper.avg) {
				s.paperErrorPct += 100 * math.Abs(r.Avg-paper.avg[i]) / paper.avg[i]
				n++
			}
		}
	}
	if n > 0 {
		s.paperErrorPct /= float64(n)
	}
	return s
}
