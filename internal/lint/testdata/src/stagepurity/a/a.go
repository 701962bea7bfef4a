// Package a is the stagepurity true-positive corpus: serial-only sinks and
// //loft:commitonly writes reachable from parallel compute-phase entry
// points, both annotated (//loft:computephase) and auto-seeded
// (ParallelKernel.AddTicker, netsim.Harness.AddTicker).
package a

import (
	"math/rand"

	"loft/internal/audit"
	"loft/internal/netsim"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/sim"
	"loft/internal/stats"
)

type fabric struct {
	//loft:commitonly
	head int
	//loft:commitonly
	frameCount map[int]int
	//loft:commitonly
	barrier int
}

type node struct {
	net   *fabric
	probe *probe.Probe
	trc   *probe.Tracer
	reg   *probe.Registry
	ctr   *probe.Counter
	stage *probe.Stage
	aud   *audit.Auditor
	lat   *stats.Latency
	thr   *stats.Throughput
	hist  *stats.Histogram
	mon   *perfmon.Monitor
}

// Tick is a compute-phase entry point by annotation.
//
//loft:computephase
func (n *node) Tick(now uint64) {
	n.probe.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0) // want `serial-only sink probe\.Probe\.Emit called in the parallel compute phase \(reachable from compute-phase entry Tick\)`
	_ = n.stage.Drain()                                   // want `serial-only sink probe\.Stage\.Drain called in the parallel compute phase`
	n.trc.Emit(probe.Event{})                             // want `serial-only sink probe\.Tracer\.Emit called in the parallel compute phase`
	n.aud.Record(&probe.Record{})                         // want `serial-only sink audit\.Auditor\.Record called in the parallel compute phase`
	n.net.head = int(now)                                 // want `write to //loft:commitonly field head in the parallel compute phase`
	n.net.barrier--                                       // want `write to //loft:commitonly field barrier in the parallel compute phase`
	n.net.frameCount[0]++                                 // want `write to //loft:commitonly field frameCount in the parallel compute phase`
	delete(n.net.frameCount, 1)                           // want `write to //loft:commitonly field frameCount in the parallel compute phase`
	_ = n.net.head                                        // reads of commit-only state are fine: it is stable between barriers
	n.observe(now)
	n.commit(now)
}

// observe is hot only by reachability: Tick calls it.
func (n *node) observe(now uint64) {
	n.probe.MaybeSample(now) // want `serial-only sink probe\.Probe\.MaybeSample called in the parallel compute phase \(reachable from compute-phase entry Tick\)`
	n.reg.Sample(now)        // want `serial-only sink probe\.Registry\.Sample called in the parallel compute phase`
	n.ctr.Inc()              // want `serial-only sink probe\.Counter\.Inc called in the parallel compute phase`
	n.aud.OnCycle(now)       // want `serial-only sink audit\.Auditor\.OnCycle called in the parallel compute phase`
	n.lat.Observe(0, now)    // want `serial-only sink stats\.Latency\.Observe called in the parallel compute phase`
	n.thr.Observe(0, 0, now) // want `serial-only sink stats\.Throughput\.Observe called in the parallel compute phase`
	n.hist.Observe(now)      // want `serial-only sink stats\.Histogram\.Observe called in the parallel compute phase`
	n.mon.OnCycle(now)       // want `serial-only sink perfmon\.Monitor\.OnCycle called in the parallel compute phase`
	_ = rand.Intn(4)         // want `serial-only sink rand\.Intn called in the parallel compute phase`
}

// commit is marked //loft:commitphase: propagation stops here, so its sinks
// and commit-only writes are sanctioned.
//
//loft:commitphase
func (n *node) commit(now uint64) {
	n.net.head = int(now)
	for _, r := range n.stage.Drain() {
		n.aud.Record(&r)
	}
	n.probe.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0)
}

// faultGate is the fault-layer shape done wrong: probe events emitted on the
// shared (serial-only) probe instead of the per-node stage, and a global
// fault tally mutated during compute.
type faultGate struct {
	probe *probe.Probe
	net   *fabric
}

//loft:computephase
func (g *faultGate) Tick(now uint64) {
	g.probe.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0) // want `serial-only sink probe\.Probe\.Emit called in the parallel compute phase \(reachable from compute-phase entry Tick\)`
	g.net.head++                                          // want `write to //loft:commitonly field head in the parallel compute phase`
}

// comp is seeded without any annotation: wire registers it on the parallel
// kernel, so its Tick runs in the compute phase.
type comp struct {
	probe *probe.Probe
}

func (c *comp) Tick(now uint64) {
	c.probe.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0) // want `serial-only sink probe\.Probe\.Emit called in the parallel compute phase \(reachable from compute-phase entry Tick\)`
}

func wire(k *sim.ParallelKernel, c *comp) {
	k.AddTicker(0, c)
}

// slotted is seeded through the network harness, the way every real network
// registers its nodes: AddTicker is promoted from the embedded Harness.
type slotted struct {
	thr *stats.Throughput
}

func (c *slotted) Tick(now uint64) {
	c.thr.ObserveN(0, 0, 1, now) // want `serial-only sink stats\.Throughput\.ObserveN called in the parallel compute phase \(reachable from compute-phase entry Tick\)`
}

type meshNet struct {
	*netsim.Harness
}

func wireHarness(net *meshNet, c *slotted) {
	net.AddTicker(0, c)
}
