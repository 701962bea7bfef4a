package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/fault"
	"loft/internal/flit"
	"loft/internal/gsf"
	"loft/internal/loft"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/stats"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// chunkCycles is the length of one timed Run call in the measured phase.
// Chunked Run calls give the same results as one long call (core.runNetwork
// relies on the same property), and the chunk times are the kcycle
// percentiles of the traced run.
const chunkCycles = 1000

// chaosPlan is the five-kind fault plan of BenchmarkFaultOverhead. Its windows
// are cycle numbers: they need the 5000 + 10000 cycles of loft_observed.
const chaosPlan = `
	link-down    node=7  dir=south from=5000 to=7000
	flit-loss    node=3  dir=east  rate=0.2 from=2000 to=15000
	credit-stall node=15 dir=west  from=8000 to=8200
	router-stall node=9  from=9000 to=9050
	adversary    flow=1  factor=3 cap=1 from=4000`

// observers selects which observer seams a rep attaches.
type observers struct {
	audit, probe, perf, fault bool
}

var allObservers = observers{audit: true, probe: true, perf: true, fault: true}

// steady is one steady-state workload: one 8x8 network under uniform traffic
// at a fixed offered rate, warmed up untimed and then measured.
type steady struct {
	arch    core.Arch
	rate    float64 // offered flits/cycle/node
	warmup  uint64
	measure uint64
	obs     observers
	plan    string // the fault plan obs.fault arms
	workers int    // node workers; 0 or 1 is the sequential kernel

	// parallel makes the traced run repeat the workload on the parallel
	// engine.
	parallel bool

	// lossless marks a workload below saturation: nothing may be dropped
	// and accepted throughput must match the offered rate.
	lossless bool
}

// simNet is what the benchmark needs from loft.Network and gsf.Network.
type simNet interface {
	Run(n uint64)
	Close()
	Now() uint64
	Latency() *stats.Latency
	NetLatency() *stats.Latency
	FlowLatency() *stats.FlowLatency
	Throughput() *stats.Throughput
}

// attached holds the observers built for one rep.
type attached struct {
	aud  *audit.Auditor
	pr   *probe.Probe
	mon  *perfmon.Monitor
	plan *fault.Plan
}

func (o observers) attach(faultPlan string) (attached, error) {
	var a attached
	if o.audit {
		a.aud = audit.New(audit.Config{})
	}
	if o.probe {
		a.pr = probe.New(probe.Config{SampleEvery: 256})
	}
	if o.perf {
		a.mon = perfmon.New(perfmon.Config{})
	}
	if o.fault {
		plan, err := fault.Parse(faultPlan)
		if err != nil {
			return a, err
		}
		a.plan = plan
	}
	return a, nil
}

func (w steady) pattern() *traffic.Pattern {
	cfg := config.PaperLOFT()
	return traffic.Uniform(cfg.Mesh(), w.rate, cfg.PacketFlits, cfg.FrameFlits)
}

func (w steady) build(p *traffic.Pattern, seed uint64, a attached) (simNet, error) {
	if w.arch == core.ArchGSF {
		return gsf.New(config.PaperGSF(), p, gsf.Options{Seed: seed, Warmup: w.warmup, BaseFrameFlits: config.PaperLOFT().FrameFlits,
			Probe: a.pr, Audit: a.aud, Workers: w.workers, Perf: a.mon, Fault: a.plan})
	}
	return loft.New(config.PaperLOFT(), p, loft.Options{Seed: seed, Warmup: w.warmup,
		Probe: a.pr, Audit: a.aud, Workers: w.workers, Perf: a.mon, Fault: a.plan})
}

// summary is the canonical result of one steady-state rep: what core.Result
// carries, in slices ordered by flow and node id so its JSON is stable.
type summary struct {
	AvgLatency, P50Latency, P99Latency float64
	MaxLatency                         uint64
	AvgNetLatency                      float64
	MaxNetLatency                      uint64
	Packets, Flits                     uint64
	TotalRate                          float64
	FlowRate, FlowLatency, NodeRate    []float64
	Drops                              uint64
}

func summarize(net simNet, p *traffic.Pattern) summary {
	lat, latNet, latFlow, thr := net.Latency(), net.NetLatency(), net.FlowLatency(), net.Throughput()
	s := summary{
		AvgLatency: lat.Mean(), P50Latency: lat.Percentile(50), P99Latency: lat.Percentile(99), MaxLatency: lat.Max(),
		AvgNetLatency: latNet.Mean(), MaxNetLatency: latNet.Max(),
		Packets: lat.Count(), Flits: thr.TotalFlits(), TotalRate: thr.Total(),
	}
	for _, f := range p.Flows {
		s.FlowRate = append(s.FlowRate, thr.Flow(f.ID))
		s.FlowLatency = append(s.FlowLatency, latFlow.Mean(f.ID))
	}
	for n := 0; n < p.Mesh.N(); n++ {
		s.NodeRate = append(s.NodeRate, thr.Node(n))
	}
	return s
}

// digest is the sha256 of v's JSON encoding; encoding/json sorts map keys.
func digest(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// repResult is what one rep of any workload hands back.
type repResult struct {
	e2e    map[string]float64 // every end-to-end metric
	digest string
	cycles uint64 // measured cycles

	// What the traced run reads on top: phase times, the per-chunk times
	// of the measured phase, counters read from the finished network, and
	// the observers the rep ran with.
	phase  map[string]time.Duration
	chunks []float64 // ms per chunkCycles
	layer  layerSet
	att    attached
	sum    summary
}

// cyclesPerS is the measured-phase speed of the rep.
func (r repResult) cyclesPerS() float64 { return r.e2e["sim_cycles_per_s"] }

// heapAfterGC forces a collection and returns the live heap in MB.
func heapAfterGC() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// rep builds a fresh network, warms it up, measures it and checks what it
// produced. Every correctness check goes through public accessors.
func (w steady) rep(c *runCtx) (repResult, error) {
	res := repResult{phase: map[string]time.Duration{}, layer: layerSet{}}
	att, err := w.obs.attach(w.plan)
	if err != nil {
		return res, err
	}
	res.att = att
	runtime.GC()
	m0 := mallocs()

	var p *traffic.Pattern
	var net simNet
	newSpan := "loft.New"
	if w.arch == core.ArchGSF {
		newSpan = "gsf.New"
	}
	total := w.warmup + w.measure
	res.phase["setup"] = c.tr.timed("setup", func() {
		res.phase["pattern"] = c.tr.timed("traffic.pattern", func() { p = w.pattern() })
		res.phase["new"] = c.tr.timed(newSpan, func() { net, err = w.build(p, c.seed, att) })
		if err != nil {
			return
		}
		if att.aud != nil {
			att.aud.StartRun(total)
		}
		res.phase["warmup"] = c.tr.timed("warmup", func() { net.Run(w.warmup) })
	})
	if err != nil {
		return res, err
	}

	res.phase["measure"] = c.tr.timed("measure", func() {
		for done := uint64(0); done < w.measure; {
			n := uint64(chunkCycles)
			if w.measure-done < n {
				n = w.measure - done
			}
			d := c.tr.timed("run.chunk", func() { net.Run(n) })
			if n == chunkCycles {
				res.chunks = append(res.chunks, float64(d.Nanoseconds())/1e6)
			}
			done += n
		}
	})
	if att.aud != nil {
		att.aud.FinishRun(net.Now())
	}
	heap := heapAfterGC()

	res.phase["summarize"] = c.tr.timed("summarize", func() { res.sum = summarize(net, p) })
	res.phase["close"] = c.tr.timed("close", func() { net.Close() })
	allocs := mallocs() - m0
	runtime.KeepAlive(net)

	sum := &res.sum
	if err := w.readCounters(net, att, sum, res.layer); err != nil {
		return res, err
	}
	if res.digest, err = digest(sum); err != nil {
		return res, err
	}
	if sum.Flits == 0 {
		return res, fmt.Errorf("no flit delivered in %d measured cycles", w.measure)
	}
	measure := res.phase["measure"].Seconds()
	wall := res.phase["setup"] + res.phase["measure"] + res.phase["summarize"] + res.phase["close"]
	res.cycles = w.measure
	res.e2e = map[string]float64{
		"setup_s":                       res.phase["setup"].Seconds(),
		"wall_s":                        wall.Seconds(),
		"sim_cycles_per_s":              float64(w.measure) / measure,
		"host_us_per_flit":              measure * 1e6 / float64(sum.Flits),
		"live_heap_mb":                  heap,
		"allocs_per_kcycle":             float64(allocs) / (float64(w.measure) / 1000),
		"accepted_flits_per_cycle_node": sum.TotalRate / float64(p.Mesh.N()),
		"avg_latency_cycles":            sum.AvgLatency,
	}
	if att.plan != nil {
		// The plan's link-down window and adversary pile packets up in a few
		// source queues, and how many depends on the seed: the total-latency
		// mean moves by a fifth between seeds, the network latency does not.
		res.e2e["avg_latency_cycles"] = sum.AvgNetLatency
	}
	return res, w.check(c, &res, p)
}

// readCounters reads the architecture's own counters off the finished
// network into the per-layer set, and the drop count into the summary.
func (w steady) readCounters(net simNet, att attached, sum *summary, ls layerSet) error {
	switch n := net.(type) {
	case *loft.Network:
		s := n.TotalStats()
		sum.Drops = s.Drops
		ls.set("loft.injected_quanta", float64(s.InjectedQuanta))
		ls.set("loft.ejected_flits", float64(s.EjectedFlits))
		ls.set("loft.drops", float64(s.Drops))
		ls.set("loft.late_arrivals", float64(s.LateArrivals))
		ls.set("loft.emergent_denied", float64(s.EmergentDenied))
		ls.set("loft.backlog_flits", float64(n.Backlog()*config.PaperLOFT().QuantumFlits))
		if fw := s.SpecForwards + s.SchedForwards; fw > 0 {
			ls.set("loft.spec_forward_ratio", float64(s.SpecForwards)/float64(fw))
		}
		out, inj := n.SchedulerTotals()
		req, booked := out.Requests+inj.Requests, out.Scheduled+inj.Scheduled
		ls.set("lsf.requests", float64(req))
		if req > 0 {
			ls.set("lsf.booked_ratio", float64(booked)/float64(req))
		}
		ls.set("lsf.throttled", float64(out.Throttled+inj.Throttled))
		ls.set("lsf.frame_skips", float64(out.FrameSkips+inj.FrameSkips))
		ls.set("lsf.cond_blocks", float64(out.CondBlocks+inj.CondBlocks))
		ls.set("lsf.resets", float64(out.Resets+inj.Resets))
		if att.plan != nil {
			ls.set("fault.injected", float64(s.FaultsInjected))
			ls.set("fault.retries", float64(s.Retries))
			ls.set("fault.flits_lost", float64(s.FlitsLost))
		}
		if s.EjectedQuanta > s.InjectedQuanta {
			return fmt.Errorf("ejected %d quanta, injected only %d", s.EjectedQuanta, s.InjectedQuanta)
		}
	case *gsf.Network:
		sum.Drops = n.Drops()
		ls.set("gsf.drops", float64(n.Drops()))
		ls.set("gsf.in_flight", float64(n.InFlight()))
		ls.set("gsf.backlog_flits", float64(n.Backlog()))
	}
	return nil
}

// check applies the workload's correctness checks to one finished rep.
func (w steady) check(c *runCtx, res *repResult, p *traffic.Pattern) error {
	sum := &res.sum
	gen := w.replay(c, res.att.plan)
	if sum.Packets > gen.measured {
		return fmt.Errorf("delivered %d packets created after warm-up, the injectors generate only %d", sum.Packets, gen.measured)
	}
	if sum.Packets+sum.Drops > gen.total {
		return fmt.Errorf("delivered %d + dropped %d packets, the injectors generate only %d", sum.Packets, sum.Drops, gen.total)
	}
	if w.lossless {
		if sum.Drops != 0 {
			return fmt.Errorf("%d drops below saturation", sum.Drops)
		}
		if acc := sum.TotalRate / float64(p.Mesh.N()); acc < 0.98*w.rate || acc > 1.02*w.rate {
			return fmt.Errorf("accepted %.5f flits/cycle/node is not within 2%% of offered %.5f", acc, w.rate)
		}
	}
	if a := res.att; a.aud != nil {
		if err := a.aud.Err(); err != nil {
			return err
		}
	}
	if res.att.plan != nil && res.layer["fault.injected"].Value == 0 {
		return fmt.Errorf("fault plan armed but no fault fired")
	}
	return nil
}

// generated counts what the workload's injectors produce on their own.
type generated struct {
	total    uint64 // packets over warm-up + measured cycles
	measured uint64 // of those, created at or after the warm-up boundary
	nsPerCyc float64
}

// replay steps 64 stand-alone injectors, built exactly as the networks build
// theirs, over the workload's cycles. The counts bound what a network may
// deliver; the time is traffic.next_ns_per_cycle. Counts depend only on the
// workload, the seed and the plan's adversary, so the context caches them.
func (w steady) replay(c *runCtx, plan *fault.Plan) generated {
	key := fmt.Sprintf("%v/%v/%d/%d/%t", w.arch, w.rate, w.warmup, w.measure, plan != nil)
	if g, ok := c.replays[key]; ok {
		return g
	}
	p := w.pattern()
	inj := make([]*traffic.Injector, p.Mesh.N())
	for i := range inj {
		inj[i] = traffic.NewInjector(p, topo.NodeID(i), c.seed)
		if plan != nil && plan.HasAdversary() {
			inj[i].SetRateScale(func(id flit.FlowID, now uint64) float64 { return plan.RateScale(int(id), now) })
		}
	}
	var g generated
	total := w.warmup + w.measure
	start := time.Now()
	for now := uint64(0); now < total; now++ {
		for _, in := range inj {
			n := uint64(len(in.Next(now)))
			g.total += n
			if now >= w.warmup {
				g.measured += n
			}
		}
	}
	g.nsPerCyc = float64(time.Since(start).Nanoseconds()) / float64(total)
	c.replays[key] = g
	return g
}
