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
	"loft/internal/perfmon"
	"loft/internal/probe"
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
			mon := perfmon.New(perfmon.Config{SampleEvery: 1, Workers: workers})
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

// TestSteadyStateZeroAlloc pins the zero-allocation steady state: once a
// LOFT network has run past its warmup transient, advancing more cycles
// must allocate nothing. The dense input-reservation slab, the recycled
// look-ahead records and the double-buffered virtual-credit batches all
// feed this guarantee; a regression in any of them fails here before it
// shows up as a throughput loss in the benchmarks.
func TestSteadyStateZeroAlloc(t *testing.T) {
	cfg := config.PaperLOFT()
	p := trafficUniform(cfg, 0.2)
	// Warmup beyond the simulated horizon keeps every stats collector on its
	// early-return branch, so the measurement isolates the simulation core.
	net, err := loftnet.New(cfg, p, loftnet.Options{Seed: 1, Warmup: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	net.Run(4000)
	avg := testing.AllocsPerRun(20, func() { net.Run(50) })
	if avg != 0 {
		t.Fatalf("steady-state simulation allocates: %.1f allocs per 50-cycle chunk, want 0", avg)
	}

	// The profiler must preserve the guarantee: stage timers write into
	// fixed arrays and gauges are polled into preallocated slots, so a
	// perf-enabled run — sampling every single cycle — allocates nothing
	// either.
	t.Run("perf-enabled", func(t *testing.T) {
		mon := perfmon.New(perfmon.Config{SampleEvery: 1})
		pnet, err := loftnet.New(cfg, p, loftnet.Options{Seed: 1, Warmup: 1 << 30, Perf: mon})
		if err != nil {
			t.Fatal(err)
		}
		defer pnet.Close()
		pnet.Run(4000)
		avg := testing.AllocsPerRun(20, func() { pnet.Run(50) })
		if avg != 0 {
			t.Fatalf("perf-enabled steady state allocates: %.1f allocs per 50-cycle chunk, want 0", avg)
		}
		if snap := mon.Snapshot(); snap.SampledCycles == 0 {
			t.Fatal("profiler attached but sampled no cycles")
		}
	})

	// GSF past saturation: the per-output candidate lists are carved from
	// storage sized in gsf.New, so arbitrating allocates nothing either.
	t.Run("gsf", func(t *testing.T) {
		gnet, err := gsf.New(config.PaperGSF(), trafficUniform(cfg, 0.6), gsf.Options{Seed: 1, Warmup: 1 << 30, BaseFrameFlits: cfg.FrameFlits})
		if err != nil {
			t.Fatal(err)
		}
		defer gnet.Close()
		gnet.Run(4000)
		avg := testing.AllocsPerRun(10, func() { gnet.Run(500) })
		if avg != 0 {
			t.Fatalf("GSF steady state allocates: %.1f allocs per 500-cycle chunk, want 0", avg)
		}
	})
}
