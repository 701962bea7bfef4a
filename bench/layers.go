package main

import (
	"bytes"
	"fmt"
	"time"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/det"
	"loft/internal/flit"
	"loft/internal/lsf"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/stats"
	"loft/internal/sweep"
	"loft/internal/topo"
	"loft/internal/traffic"
)

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// nop is a component that does nothing, so stepping it times the kernel.
type nop struct{}

func (nop) Tick(uint64)   {}
func (nop) Update(uint64) {}

// kernelNS steps 64 no-op tickers and updaters on the sequential kernel.
func kernelNS(c *runCtx, cycles int) float64 {
	k := sim.NewKernel()
	for i := 0; i < 64; i++ {
		k.Add(nop{})
	}
	d := c.tr.timed("sim.Kernel", func() { k.Run(uint64(cycles)) })
	return float64(d.Nanoseconds()) / float64(cycles)
}

// parallelKernelNS does the same on the parallel kernel, where the time is
// the two barriers of every cycle.
func parallelKernelNS(c *runCtx, workers, cycles int) float64 {
	k := sim.NewParallelKernel(workers)
	defer k.Close()
	for i := 0; i < 64; i++ {
		k.AddTicker(i, nop{})
	}
	d := c.tr.timed("sim.ParallelKernel", func() { k.Run(uint64(cycles)) })
	return float64(d.Nanoseconds()) / float64(cycles)
}

// clockNS is the cost of one time.Now call, which the per-call timings of
// the lsf driver subtract.
func clockNS() float64 {
	const n = 200000
	start := time.Now()
	for i := 0; i < n; i++ {
		time.Now()
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

// lsfTimes drives one stand-alone lsf.Table sized like a node's, holding the
// flows of the pattern's busiest link. Each slot it ticks and, with the
// workload's offered rate as probability, requests one quantum for the next
// flow in turn and returns the credit at once, as a prompt downstream would.
// Request and ReturnCredit are timed call by call; Tick costs less than a
// clock read, so it is timed as one batch of ticks on the used table.
func lsfTimes(c *runCtx, p *traffic.Pattern, rate float64, slots int, ls layerSet) error {
	cfg := config.PaperLOFT()
	linkFlows := p.LinkFlows()
	var flows []flit.FlowID
	for _, l := range det.KeysFunc(linkFlows, topo.Link.Less) {
		if len(linkFlows[l]) > len(flows) {
			flows = linkFlows[l]
		}
	}
	t := lsf.NewTable("bench", lsf.Params{SlotsPerFrame: cfg.SlotsPerFrame(), Frames: cfg.FrameWindow, BufferQuanta: cfg.BufferQuanta(), Strict: true, Yield: cfg.YieldCondition})
	for _, id := range flows {
		r := p.Flow(id).Reservation / cfg.QuantumFlits
		if r < 1 {
			r = 1
		}
		if err := t.AddFlow(id, r); err != nil {
			return err
		}
	}
	rng := sim.NewRNG(sim.SeedFor(c.seed, 0))
	window := uint64(t.WindowSlots())
	var tick, request, credit time.Duration
	var requests, booked int
	c.tr.timed("lsf.Table", func() {
		for s := 0; s < slots; s++ {
			t.Tick()
			if !rng.Bernoulli(rate) {
				continue
			}
			t2 := time.Now()
			slot, ok := t.Request(flows[requests%len(flows)], uint64(requests), 0)
			t3 := time.Now()
			request += t3.Sub(t2)
			requests++
			if !ok {
				continue
			}
			booked++
			tag := slot + 1
			if last := t.NowSlot() + window - 1; tag > last {
				tag = last
			}
			t.ClearBusy(slot)
			t4 := time.Now()
			t.ReturnCredit(tag)
			credit += time.Since(t4)
		}
		start := time.Now()
		for s := 0; s < slots; s++ {
			t.Tick()
		}
		tick = time.Since(start)
	})
	if requests == 0 || booked == 0 {
		return fmt.Errorf("lsf driver: %d requests, %d booked in %d slots", requests, booked, slots)
	}
	clock := clockNS()
	per := func(d time.Duration, n int) float64 {
		if v := float64(d.Nanoseconds())/float64(n) - clock; v > 0 {
			return v
		}
		return 0
	}
	ls.set("lsf.tick_ns", float64(tick.Nanoseconds())/float64(slots))
	ls.set("lsf.request_ns", per(request, requests))
	ls.set("lsf.return_credit_ns", per(credit, booked))
	return nil
}

// observeNS feeds stand-alone collectors as many packets as the workload
// delivered, the way a network's sink does.
func observeNS(c *runCtx, p *traffic.Pattern, packets uint64) float64 {
	lat, latNet := stats.NewLatencySeeded(0, c.seed), stats.NewLatencySeeded(0, c.seed)
	latFlow, thr := stats.NewFlowLatency(0), stats.NewThroughput(0)
	flows := uint64(len(p.Flows))
	d := c.tr.timed("stats.Observe", func() {
		for i := uint64(0); i < packets; i++ {
			f := flit.FlowID(i % flows)
			lat.Observe(i, i+40+i%17)
			latNet.Observe(i, i+30+i%17)
			latFlow.Observe(f, i, i+40+i%17)
			thr.ObserveN(f, int(f), p.PacketFlits, i)
		}
	})
	return float64(d.Nanoseconds()) / float64(packets)
}

// coreRun times the same spec through the core facade.
func (w steady) coreRun(c *runCtx) (time.Duration, error) {
	att, err := w.obs.attach(w.plan)
	if err != nil {
		return 0, err
	}
	spec := core.RunSpec{Seed: c.seed, Warmup: w.warmup, Measure: w.measure, Probe: att.pr, Audit: att.aud, Perf: att.mon, Fault: att.plan, Workers: w.workers}
	p := w.pattern()
	d := c.tr.timed("core.Run", func() {
		if w.arch == core.ArchGSF {
			_, _, err = core.RunGSF(config.PaperGSF(), p, config.PaperLOFT().FrameFlits, spec)
		} else {
			_, _, err = core.RunLOFT(config.PaperLOFT(), p, spec)
		}
	})
	return d, err
}

// layers is the traced run's extra work for a steady-state workload.
func (w steady) layers(c *runCtx, sz sizes, ref, traced repResult, ls layerSet) error {
	arch, stages := "loft", loftStages
	if w.arch == core.ArchGSF {
		arch, stages = "gsf", gsfStages
	}
	ls.set(arch+".new_ms", ms(traced.phase["new"]))
	if arch == "loft" {
		ls.set("loft.close_ms", ms(traced.phase["close"]))
	}
	ls.set(arch+".run_ns_per_cycle", float64(traced.phase["measure"].Nanoseconds())/float64(traced.cycles))
	if len(traced.chunks) > 0 {
		ls.set(arch+".kcycle_ms_p50", median(traced.chunks))
		ls.set(arch+".kcycle_ms_p95", percentile(traced.chunks, 95))
	}
	snap := traced.att.mon.Snapshot()
	for _, name := range stages {
		for _, st := range snap.Stages {
			if st.Name == name && snap.SampledCycles > 0 {
				ls.set(arch+".stage_ns."+name, float64(st.Nanos)/float64(snap.SampledCycles))
			}
		}
	}

	p := w.pattern()
	gen := w.replay(c, traced.att.plan)
	ls.set("traffic.pattern_build_ms", ms(traced.phase["pattern"]))
	ls.set("traffic.next_ns_per_cycle", gen.nsPerCyc)
	ls.set("traffic.packets_generated", float64(gen.total))
	ls.set("sim.kernel_ns_per_cycle", kernelNS(c, sz.kernelCycles))
	ls.set("stats.observe_ns_per_packet", observeNS(c, p, traced.sum.Packets))
	ls.set("stats.summarize_ms", ms(traced.phase["summarize"]))
	ls.set("stats.p99_latency_cycles", traced.sum.P99Latency)

	facade, err := w.coreRun(c)
	if err != nil {
		return err
	}
	ls.set("core.run_overhead_ms", ms(facade-ref.phase["new"]-ref.phase["warmup"]-ref.phase["measure"]))

	if arch == "loft" {
		if err := lsfTimes(c, p, w.rate, sz.lsfSlots, ls); err != nil {
			return err
		}
	}
	if w.parallel {
		if err := w.parallelLayers(c, sz, traced, ls); err != nil {
			return err
		}
	}
	if w.obs == allObservers {
		return w.observerLayers(c, traced, ls)
	}
	return nil
}

// parallelLayers reruns the workload on the parallel engine. Both sides run
// with the profiler attached: the traced rep is the one-worker side.
func (w steady) parallelLayers(c *runCtx, sz sizes, traced repResult, ls layerSet) error {
	if c.workers < 2 {
		ls.skip(fmt.Sprintf("GOMAXPROCS=%d leaves no second worker", c.workers),
			"sim.parallel_ns_per_cycle", "sim.parallel_workers", "sim.parallel_speedup", "sim.barrier_wait_pct", "sim.worker_imbalance")
		return nil
	}
	ls.set("sim.parallel_workers", float64(c.workers))
	ls.set("sim.parallel_ns_per_cycle", parallelKernelNS(c, c.workers, sz.kernelCycles/20))
	par := w
	par.workers = c.workers
	par.obs.perf = true
	r, err := safeRep(c, par.rep)
	if err != nil {
		return fmt.Errorf("workers=%d: %w", c.workers, err)
	}
	if r.digest != traced.digest {
		return fmt.Errorf("workers=%d changed sim_digest", c.workers)
	}
	ls.set("sim.parallel_speedup", r.cyclesPerS()/traced.cyclesPerS())
	m := r.att.mon.Snapshot().Metrics()
	ls.set("sim.barrier_wait_pct", m["perf barrier wait %"])
	ls.set("sim.worker_imbalance", m["perf worker imbalance"])
	return nil
}

// observerLayers prices the observers as speed ratios against a bare rep run
// next to them, and checks that an observer which injects nothing leaves the
// results alone: audit, probe and perfmon, alone and together, must reproduce
// the bare rep's sim_digest.
func (w steady) observerLayers(c *runCtx, traced repResult, ls layerSet) error {
	run := func(o observers) (repResult, error) {
		with := w
		with.obs = o
		r, err := safeRep(c, with.rep)
		if err != nil {
			return r, fmt.Errorf("observers %+v: %w", o, err)
		}
		return r, nil
	}
	type priced struct {
		metric string
		obs    observers
	}
	for _, group := range [][]priced{
		{{"observed_speed_ratio", allObservers}, {"", observers{audit: true, probe: true, perf: true}}},
		{{"audit.speed_ratio", observers{audit: true}}, {"probe.speed_ratio", observers{probe: true}}},
		{{"fault.speed_ratio", observers{fault: true}}, {"perfmon.speed_ratio", observers{perf: true}}},
	} {
		bare, err := run(observers{})
		if err != nil {
			return err
		}
		for _, p := range group {
			r, err := run(p.obs)
			if err != nil {
				return err
			}
			if !p.obs.fault && r.digest != bare.digest {
				return fmt.Errorf("observers %+v changed sim_digest", p.obs)
			}
			if p.metric != "" {
				ls.set(p.metric, r.cyclesPerS()/bare.cyclesPerS())
			}
		}
	}

	ls.set("audit.violations", float64(len(traced.att.aud.Violations())))
	ls.set("probe.events", float64(len(traced.att.pr.Events())))
	var buf bytes.Buffer
	var werr error
	d := c.tr.timed("probe.Export", func() {
		werr = probe.WriteEventsJSONL(&buf, traced.att.pr.Events(), traced.att.pr.Tracer().Dropped())
	})
	if werr != nil {
		return werr
	}
	ls.set("probe.export_ms", ms(d))
	return nil
}

// layers is the traced run's extra work for the suite: the same suite at one
// worker, which times each experiment alone and prices the pool.
func (w suite) layers(c *runCtx, sz sizes, ref, traced repResult, ls layerSet) error {
	one := w
	one.workers = 1
	r, err := safeRep(c, one.rep)
	if err != nil {
		return fmt.Errorf("workers=1: %w", err)
	}
	if r.digest != traced.digest {
		return fmt.Errorf("workers=1 changed sim_digest")
	}
	for _, e := range experiments(false) {
		if d, ok := r.phase[e.name]; ok {
			ls.set("exp."+e.name+"_s", d.Seconds())
		}
	}
	if c.workers < 2 {
		ls.skip(fmt.Sprintf("GOMAXPROCS=%d leaves no second worker", c.workers), "sweep.speedup", "sweep.pool_efficiency")
	} else {
		speedup := r.phase["measure"].Seconds() / traced.phase["measure"].Seconds()
		ls.set("sweep.speedup", speedup)
		ls.set("sweep.pool_efficiency", speedup/float64(c.workers))
	}
	d := c.tr.timed("sweep.Run", func() {
		_, err = sweep.Run(c.workers, sz.sweepJobs, func(i int) (int, error) { return i, nil })
	})
	if err != nil {
		return err
	}
	ls.set("sweep.dispatch_us_per_job", float64(d.Nanoseconds())/1e3/float64(sz.sweepJobs))
	return nil
}

// traceWorkload is the traced run of one workload: an untraced reference
// rep, the same rep under spans with the profiler attached, then the
// workload's layer drivers. It returns every per-layer metric.
func traceWorkload(c *runCtx, tr *tracer, w workload) (layerSet, outcome, error) {
	out := outcome{Name: w.name}
	ls := layerSet{}
	fail := func(err error) (layerSet, outcome, error) {
		out.Failed++
		out.Failures = append(out.Failures, err.Error())
		return ls, out, ls.complete(w.name)
	}
	out.Attempted = 2
	c.tr = nil
	ref, err := safeRep(c, w.rep)
	if err != nil {
		return fail(fmt.Errorf("reference rep: %w", err))
	}
	tr.workload = w.name
	c.tr = tr
	traced, err := safeRep(c, w.traced)
	if err != nil {
		return fail(fmt.Errorf("traced rep: %w", err))
	}
	if traced.digest != ref.digest {
		return fail(fmt.Errorf("tracing changed sim_digest"))
	}
	out.Reps, out.SimDigest, out.Cycles = 2, traced.digest, traced.cycles
	for name, v := range traced.layer {
		ls[name] = v
	}
	ls.set("trace_overhead_pct", 100*(traced.phase["measure"].Seconds()-ref.phase["measure"].Seconds())/ref.phase["measure"].Seconds())
	if err := w.layers(c, ref, traced, ls); err != nil {
		return fail(err)
	}
	return ls, out, ls.complete(w.name)
}
