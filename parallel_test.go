// Parallel-engine determinism goldens: for every architecture, seed and
// worker count, a sharded run must be byte-identical to the sequential run —
// not just statistically equivalent. The comparison covers the full result
// summary, the exported probe event stream (JSONL bytes) and the audit
// conformance snapshot (JSON bytes). `make par-smoke` runs these under the
// race detector.
package loft

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/fault"
	"loft/internal/gsf"
	loftnet "loft/internal/loft"
	"loft/internal/lsf"
	"loft/internal/netsim"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/topo"
)

// observedRun is everything externally visible from one simulation run.
type observedRun struct {
	res    core.Result
	events []byte // probe JSONL export
	audit  []byte // audit snapshot JSON
}

func runObserved(t *testing.T, arch core.Arch, seed uint64, workers int) observedRun {
	return runObservedFault(t, arch, seed, workers, nil, nil)
}

// runObservedPerf is runObserved with an optional perfmon monitor attached;
// the perf snapshot itself holds wall times and is deliberately NOT part of
// observedRun — byte-identity is asserted over the simulation outputs only.
func runObservedPerf(t *testing.T, arch core.Arch, seed uint64, workers int, mon *perfmon.Monitor) observedRun {
	return runObservedFault(t, arch, seed, workers, mon, nil)
}

// runObservedFault additionally arms a fault-injection plan on the run.
func runObservedFault(t *testing.T, arch core.Arch, seed uint64, workers int, mon *perfmon.Monitor, plan *fault.Plan) observedRun {
	t.Helper()
	cfg := config.PaperLOFT()
	p := trafficUniform(cfg, 0.2)
	pr := probe.New(probe.Config{SampleEvery: 256})
	aud := audit.New(audit.Config{})
	spec := core.RunSpec{Seed: seed, Warmup: 200, Measure: 1500, Probe: pr, Audit: aud, Workers: workers, Perf: mon, Fault: plan}
	res, err := core.Run(arch, cfg, p, spec)
	if err != nil {
		t.Fatalf("%s seed %d workers %d: %v", arch, seed, workers, err)
	}
	var evBuf bytes.Buffer
	if err := probe.WriteEventsJSONL(&evBuf, pr.Events(), pr.Tracer().Dropped()); err != nil {
		t.Fatalf("export events: %v", err)
	}
	audJSON, err := json.Marshal(aud.Snapshot())
	if err != nil {
		t.Fatalf("marshal audit snapshot: %v", err)
	}
	return observedRun{res: res, events: evBuf.Bytes(), audit: audJSON}
}

func checkIdentical(t *testing.T, arch core.Arch, seed uint64, workers int, seq, par observedRun) {
	t.Helper()
	if !reflect.DeepEqual(seq.res, par.res) {
		t.Errorf("%s seed %d: workers=%d result differs from sequential\nseq: %+v\npar: %+v",
			arch, seed, workers, seq.res, par.res)
	}
	if !bytes.Equal(seq.events, par.events) {
		t.Errorf("%s seed %d: workers=%d probe event stream differs from sequential (%d vs %d bytes)",
			arch, seed, workers, len(seq.events), len(par.events))
	}
	if !bytes.Equal(seq.audit, par.audit) {
		t.Errorf("%s seed %d: workers=%d audit snapshot differs from sequential\nseq: %s\npar: %s",
			arch, seed, workers, seq.audit, par.audit)
	}
}

// TestParallelDeterminism checks LOFT byte-identity across worker counts.
func TestParallelDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seq := runObserved(t, core.ArchLOFT, seed, 1)
		if seq.res.Packets == 0 {
			t.Fatalf("seed %d: sequential run delivered no packets", seed)
		}
		for _, workers := range []int{2, 4} {
			par := runObserved(t, core.ArchLOFT, seed, workers)
			checkIdentical(t, core.ArchLOFT, seed, workers, seq, par)
		}
	}
}

// TestParallelGSFDeterminism checks GSF byte-identity across worker counts.
func TestParallelGSFDeterminism(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		seq := runObserved(t, core.ArchGSF, seed, 1)
		if seq.res.Packets == 0 {
			t.Fatalf("seed %d: sequential run delivered no packets", seed)
		}
		for _, workers := range []int{2, 4} {
			par := runObserved(t, core.ArchGSF, seed, workers)
			checkIdentical(t, core.ArchGSF, seed, workers, seq, par)
		}
	}
}

// TestPerfmonByteIdentity is the profiling-never-changes-results golden: a
// perfmon-instrumented run — sequential and sharded, sampling every cycle —
// must produce byte-identical results, probe event streams and audit
// snapshots to the bare run. Wall times land only in the perf snapshot,
// which is excluded from the comparison (and from run-directory goldens)
// precisely because it is nondeterministic by design.
func TestPerfmonByteIdentity(t *testing.T) {
	for _, arch := range []core.Arch{core.ArchLOFT, core.ArchGSF} {
		bare := runObserved(t, arch, 1, 1)
		if bare.res.Packets == 0 {
			t.Fatalf("%s: bare run delivered no packets", arch)
		}
		for _, workers := range []int{1, 2} {
			mon := perfmon.New(perfmon.Config{SampleEvery: 1})
			prof := runObservedPerf(t, arch, 1, workers, mon)
			checkIdentical(t, arch, 1, workers, bare, prof)
			snap := mon.Snapshot()
			if snap.SampledCycles == 0 || len(snap.Stages) == 0 {
				t.Errorf("%s workers=%d: profiler attached but collected nothing: %+v", arch, workers, snap)
			}
			if workers > 1 && snap.Engine == nil {
				t.Errorf("%s workers=%d: no parallel-engine telemetry", arch, workers)
			}
		}
	}
}

// chaosPlan covers every fault kind at once on nodes that carry uniform
// traffic: a link-down window, sustained flit loss, a credit stall, a router
// stall and a misbehaving flow, all inside the 200+1500-cycle test horizon.
const chaosPlan = `
link-down    node=7  dir=south from=300 to=400
flit-loss    node=3  dir=east  rate=0.4 from=250 to=1200
credit-stall node=15 dir=west  from=500 to=560
router-stall node=9  from=600 to=608
adversary    flow=1  factor=3 cap=1 from=400
`

// TestChaosPlanParallelDeterminism is the fault-layer determinism golden: a
// run with every fault kind armed must be byte-identical — result summary,
// probe JSONL, audit snapshot — across worker counts, with faults actually
// firing and denied quanta actually retrying.
func TestChaosPlanParallelDeterminism(t *testing.T) {
	plan, err := fault.Parse(chaosPlan)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 2} {
		seq := runObservedFault(t, core.ArchLOFT, seed, 1, nil, plan)
		if seq.res.Packets == 0 {
			t.Fatalf("seed %d: chaos run delivered no packets", seed)
		}
		if seq.res.FaultsInjected == 0 || seq.res.FlitsLost == 0 {
			t.Fatalf("seed %d: chaos plan armed but no faults fired: %+v", seed, seq.res)
		}
		if seq.res.Retries == 0 {
			t.Fatalf("seed %d: flits were lost but nothing retried", seed)
		}
		for _, workers := range []int{2, 4} {
			par := runObservedFault(t, core.ArchLOFT, seed, workers, nil, plan)
			checkIdentical(t, core.ArchLOFT, seed, workers, seq, par)
		}
	}
}

// runCorrupted runs a LOFT network with a deliberate lsf corruption armed on
// every reservation table and returns the externally visible outputs plus
// the auditor's violation count. Corrupting everywhere guarantees the
// fault's trigger pattern (frame abandonment, credit return) occurs within
// the short test horizon.
func runCorrupted(t *testing.T, f lsf.Fault, workers int) (observedRun, int) {
	t.Helper()
	cfg := config.PaperLOFT()
	p := trafficUniform(cfg, 0.2)
	pr := probe.New(probe.Config{SampleEvery: 256})
	aud := audit.New(audit.Config{})
	net, err := loftnet.New(cfg, p, loftnet.Options{Seed: 1, Warmup: 200, Probe: pr, Audit: aud, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Mesh().N(); i++ {
		for d := topo.Dir(0); d <= topo.NumDirs; d++ {
			net.Node(topo.NodeID(i)).InjectTableFault(d, f)
		}
	}
	const total = 1700
	aud.StartRun(total)
	net.Run(total)
	aud.FinishRun(net.Now())
	net.Close()
	var evBuf bytes.Buffer
	if err := probe.WriteEventsJSONL(&evBuf, pr.Events(), pr.Tracer().Dropped()); err != nil {
		t.Fatalf("export events: %v", err)
	}
	audJSON, err := json.Marshal(aud.Snapshot())
	if err != nil {
		t.Fatalf("marshal audit snapshot: %v", err)
	}
	return observedRun{events: evBuf.Bytes(), audit: audJSON}, len(aud.Violations())
}

// TestInjectFaultParallelDeterminism extends the lsf.InjectFault coverage to
// the parallel engine: for each deliberate scheduler corruption, the auditor
// must catch it AND the corrupted run must stay byte-identical between the
// sequential and sharded engines — a broken scheduler is still deterministic.
func TestInjectFaultParallelDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    lsf.Fault
	}{
		{"drop-skipped", lsf.FaultDropSkipped},
		{"leak-credit", lsf.FaultLeakCredit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			seq, seqViol := runCorrupted(t, tc.f, 1)
			if seqViol == 0 {
				t.Fatalf("auditor missed the %s corruption", tc.name)
			}
			for _, workers := range []int{4} {
				par, parViol := runCorrupted(t, tc.f, workers)
				if parViol != seqViol {
					t.Errorf("workers=%d: %d violations, sequential saw %d", workers, parViol, seqViol)
				}
				checkIdentical(t, core.ArchLOFT, 1, workers, seq, par)
			}
		})
	}
}

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

// zeroAllocRows cover every path the steady state must run without
// allocating: LSF booking and throttling, look-ahead routing, the switch
// pass and overdue/emergent forwarding, every fault kind, the tracer, the
// parallel engine, the statistics collectors, the profiler and GSF's frame
// arbitration. A Warmup beyond the simulated horizon keeps the collectors on
// their early-return branch except in the loft-0.2-collect row. The
// loft-0.2-audited row arms the auditor: the flight recorder takes each
// quantum's record from a recycled slab. No GSF row is audited: past
// saturation the number of GSF packets in flight still sets new peaks after
// 4000 cycles, and each new peak takes a fresh slab record.
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
	gsfRow := func(name string, opts gsf.Options) zeroAllocRow {
		return zeroAllocRow{name: name, chunk: 500, runs: 10, build: func(t *testing.T) (steadyNet, []counter) {
			opts.Seed, opts.Warmup, opts.BaseFrameFlits = 1, never, cfg.FrameFlits
			net, err := gsf.New(config.PaperGSF(), trafficUniform(cfg, 0.6), opts)
			if err != nil {
				t.Fatal(err)
			}
			if opts.Workers > 1 {
				requireParallel(t, net.Harness)
			}
			return net, nil
		}}
	}
	// Stage timers write into fixed arrays and gauges are polled into
	// preallocated slots, so sampling every cycle allocates nothing.
	mon := perfmon.New(perfmon.Config{SampleEvery: 1})
	// Tracer only: the time-series sampler grows its series by design.
	pr := probe.New(probe.Config{EventCap: 4096})
	aud := audit.New(audit.Config{})
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
		loftRow("loft-0.2-audited", 0.2, loftnet.Options{Warmup: never, Audit: aud}, func(*loftnet.Network) []counter {
			return []counter{{"packets checked", func() uint64 { return aud.Snapshot().PacketsChecked }}}
		}),
		// The per-output candidate lists are carved from storage sized in
		// gsf.New, so arbitrating past saturation allocates nothing.
		gsfRow("gsf", gsf.Options{}),
		gsfRow("gsf-0.6-adversary-workers2", gsf.Options{Workers: 2, Fault: plan("adversary flow=1 factor=3 cap=0.6 from=3000")}),
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
			if avg := testing.AllocsPerRun(row.runs, func() { net.Run(uint64(row.chunk)) }); avg != 0 {
				t.Fatalf("steady state allocates: %.1f allocs per %d-cycle chunk, want 0", avg, row.chunk)
			}
			for i, c := range counters {
				if after := c.read(); after <= before[i] {
					t.Errorf("%s did not grow in the measured chunks (%d -> %d)", c.name, before[i], after)
				}
			}
		})
	}
}
