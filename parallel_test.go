// The steady-state allocation gate. The determinism of the sharded engine,
// the observers and the fault layer is pinned by stored digest in
// internal/core's TestGolden.
package loft

import (
	"reflect"
	"runtime"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/fault"
	"loft/internal/gsf"
	loftnet "loft/internal/loft"
	"loft/internal/netsim"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/traffic"
)

// steadyNet is what TestSteadyStateZeroAlloc drives: either architecture's
// network.
type steadyNet interface {
	Run(n uint64)
	Close()
}

// counter is a quantity that must grow across a row's measured chunks, so a
// row cannot pass by measuring an idle path.
type counter struct {
	name string
	read func() uint64
}

// zeroAllocRow is one steady-state configuration: build the network, run it
// 4000 cycles past its start-up transient, then measure runs chunks of chunk
// cycles each.
type zeroAllocRow struct {
	name        string
	chunk, runs int
	build       func(t *testing.T) (steadyNet, []counter)
}

// faultTracedPlan is the chaos-smoke five-kind plan with every window moved
// into the measured chunks (cycles 4000 to 5050).
const faultTracedPlan = `
link-down    node=7  dir=south from=4100 to=4300
flit-loss    node=3  dir=east  rate=0.3 from=3000
credit-stall node=15 dir=south from=4200 to=4260
router-stall node=9  from=4400 to=4410
adversary    flow=1  factor=3 cap=0.6 from=3000
`

// requireParallel fails unless the harness runs on the sharded engine. The
// harness keeps its engine unexported, so the check reads it by reflection.
func requireParallel(t *testing.T, h *netsim.Harness) {
	t.Helper()
	engine := reflect.ValueOf(h).Elem().FieldByName("engine").Elem().Type()
	if engine != reflect.TypeOf((*sim.ParallelKernel)(nil)) {
		t.Fatalf("engine is %v, want *sim.ParallelKernel", engine)
	}
}

// trafficUniform is the paper's uniform pattern on cfg's mesh at rate.
func trafficUniform(cfg config.LOFT, rate float64) *traffic.Pattern {
	return traffic.Uniform(cfg.Mesh(), rate, cfg.PacketFlits, cfg.FrameFlits)
}

// zeroAllocRows cover every path the steady state must run without
// allocating: LSF booking and throttling, look-ahead routing, the switch
// pass and overdue/emergent forwarding, every fault kind, the tracer, the
// parallel engine, the statistics collectors, the profiler and GSF's frame
// arbitration. A Warmup beyond the simulated horizon keeps the collectors on
// their early-return branch except in the loft-0.2-collect row. The
// loft-0.2-audited and gsf-0.6-audited rows arm the auditor: the flight
// recorder takes each quantum's or packet's record from a recycled slab.
func zeroAllocRows(t *testing.T) []zeroAllocRow {
	cfg := config.PaperLOFT()
	const never = 1 << 30
	plan := func(spec string) *fault.Plan {
		p, err := fault.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	loftRow := func(name string, rate float64, opts loftnet.Options, grows func(*loftnet.Network) []counter) zeroAllocRow {
		return zeroAllocRow{name: name, chunk: 50, runs: 20, build: func(t *testing.T) (steadyNet, []counter) {
			opts.Seed = 1
			net, err := loftnet.New(cfg, trafficUniform(cfg, rate), opts)
			if err != nil {
				t.Fatal(err)
			}
			if opts.Workers > 1 {
				requireParallel(t, net.Harness)
			}
			if grows == nil {
				return net, nil
			}
			return net, grows(net)
		}}
	}
	gsfRow := func(name string, opts gsf.Options, grows func() []counter) zeroAllocRow {
		return zeroAllocRow{name: name, chunk: 500, runs: 10, build: func(t *testing.T) (steadyNet, []counter) {
			opts.Seed, opts.Warmup, opts.BaseFrameFlits = 1, never, cfg.FrameFlits
			net, err := gsf.New(config.PaperGSF(), trafficUniform(cfg, 0.6), opts)
			if err != nil {
				t.Fatal(err)
			}
			if opts.Workers > 1 {
				requireParallel(t, net.Harness)
			}
			if grows == nil {
				return net, nil
			}
			return net, grows()
		}}
	}
	// Stage timers write into fixed arrays and gauges are polled into
	// preallocated slots, so sampling every cycle allocates nothing.
	mon := perfmon.New(perfmon.Config{SampleEvery: 1})
	// Tracer only: the time-series sampler appends to its slab by design
	// (one growth per doubling, see probe.TestSampleAllocs).
	pr := probe.New(probe.Config{EventCap: 4096})
	aud := audit.New(audit.Config{})
	checked := func() []counter {
		return []counter{{"packets checked", func() uint64 { return aud.Snapshot().PacketsChecked }}}
	}
	return []zeroAllocRow{
		loftRow("loft-0.2", 0.2, loftnet.Options{Warmup: never}, nil),
		loftRow("perf-enabled", 0.2, loftnet.Options{Warmup: never, Perf: mon}, func(*loftnet.Network) []counter {
			return []counter{{"profiler sampled cycles", func() uint64 { return mon.Snapshot().SampledCycles }}}
		}),
		// Saturation: throttled requests, overdue and emergent forwarding.
		loftRow("loft-0.6", 0.6, loftnet.Options{Warmup: never}, func(net *loftnet.Network) []counter {
			return []counter{{"throttled requests", func() uint64 {
				out, inj := net.SchedulerTotals()
				return out.Throttled + inj.Throttled
			}}}
		}),
		loftRow("loft-0.6-fault-traced", 0.6, loftnet.Options{Warmup: never, Probe: pr, Fault: plan(faultTracedPlan)}, func(net *loftnet.Network) []counter {
			return []counter{
				{"faults injected", func() uint64 { return net.TotalStats().FaultsInjected }},
				{"flits lost", func() uint64 { return net.TotalStats().FlitsLost }},
				{"traced events", pr.Tracer().Total},
			}
		}),
		loftRow("loft-0.2-workers2", 0.2, loftnet.Options{Warmup: never, Workers: 2}, nil),
		loftRow("loft-0.2-collect", 0.2, loftnet.Options{Warmup: 1000}, func(net *loftnet.Network) []counter {
			return []counter{
				{"latency observations", net.Latency().Count},
				{"throughput flits", net.Throughput().TotalFlits},
			}
		}),
		// The flight recorder recycles its slab records and their hop lists.
		loftRow("loft-0.2-audited", 0.2, loftnet.Options{Warmup: never, Audit: aud}, func(*loftnet.Network) []counter { return checked() }),
		// The per-output candidate lists and the source queues' packet
		// rings are carved from storage sized in gsf.New, so arbitrating
		// and queueing past saturation allocate nothing.
		gsfRow("gsf", gsf.Options{}, nil),
		gsfRow("gsf-0.6-adversary-workers2", gsf.Options{Workers: 2, Fault: plan("adversary flow=1 factor=3 cap=0.6 from=3000")}, nil),
		// Past saturation 780 to 940 packets are in flight; the recorder's
		// slab, grown by chunks that double, holds them in its first 1024
		// records long before the measured chunks.
		gsfRow("gsf-0.6-audited", gsf.Options{Audit: aud}, checked),
	}
}

// TestSteadyStateZeroAlloc pins the zero-allocation steady state: once a
// network has run past its start-up transient, advancing more cycles must
// allocate nothing, on every row of zeroAllocRows. The dense
// input-reservation slab, the recycled look-ahead records and the
// double-buffered virtual-credit batches all feed this guarantee; a
// regression in any of them fails here before it shows up as a throughput
// loss in the benchmarks.
func TestSteadyStateZeroAlloc(t *testing.T) {
	for _, row := range zeroAllocRows(t) {
		t.Run(row.name, func(t *testing.T) {
			net, counters := row.build(t)
			defer net.Close()
			net.Run(4000)
			before := make([]uint64, len(counters))
			for i, c := range counters {
				before[i] = c.read()
			}
			if n := mallocs(row.runs, func() { net.Run(uint64(row.chunk)) }); n != 0 {
				t.Fatalf("steady state allocates: %d allocs over %d %d-cycle chunks, want 0", n, row.runs, row.chunk)
			}
			for i, c := range counters {
				if after := c.read(); after <= before[i] {
					t.Errorf("%s did not grow in the measured chunks (%d -> %d)", c.name, before[i], after)
				}
			}
		})
	}
}

// mallocs is testing.AllocsPerRun without the average: on one processor it
// calls f once to warm up, then runs more times, and returns every heap
// allocation those runs made. An average in integer arithmetic would hide
// up to runs-1 of them.
func mallocs(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}
