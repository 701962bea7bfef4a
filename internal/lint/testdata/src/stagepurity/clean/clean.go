// Package clean is the stagepurity clean-negative corpus: a compute phase
// that stages every shared-state effect and a commit phase that replays
// them. None of this may be flagged.
package clean

import (
	"loft/internal/audit"
	"loft/internal/lsf"
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
}

type node struct {
	net         *fabric
	probe       *probe.Probe
	stage       *probe.Stage
	live        *audit.Auditor
	aud         lsf.AuditSink
	perf        *perfmon.Timer
	lat         *stats.Latency
	frameDeltas []int
	rng         *sim.RNG
}

// Tick stages: probe.Stage buffers locally — probe events and the auditor's
// recorder operations alike — lsf.AuditSink taps leave their violations
// behind a marker in it, perfmon timers never feed results, commit-only
// fields are only read, and census changes accumulate in a per-node delta
// slice for the commit phase to apply.
//
//loft:computephase
func (n *node) Tick(now uint64) {
	n.stage.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0)
	n.stage.EmitSeq(now, probe.KindDataInject, 0, 0, 0, 1, 0)
	n.stage.EmitAux(now, probe.KindPacketDone, 0, -1, 0, 1, now, now)
	n.aud.AuditGrant(0, 1, now, 0)
	n.perf.Begin(now)
	if n.net.head > 0 { // reading commit-only state is fine between barriers
		n.frameDeltas = append(n.frameDeltas, n.net.head)
	}
	_ = n.rng.Float64() // a per-run seeded instance owns its stream
	n.commit(now)
}

// commit replays the staged effects at the barrier; the //loft:commitphase
// marker is what keeps its serial-only sinks and commit-only writes legal.
//
//loft:commitphase
func (n *node) commit(now uint64) {
	for _, r := range n.stage.Drain() {
		n.live.Record(&r)
	}
	n.lat.Observe(0, now)
	for _, h := range n.frameDeltas {
		n.net.frameCount[h]++
	}
	n.frameDeltas = n.frameDeltas[:0]
	n.net.head = int(now)
}

// faultGate mirrors the fault-injection layer: a per-node seeded RNG, a
// pre-compiled event timeline walked by a forward-only cursor, and a
// deferred-credit queue that recycles its backing array. All of it is
// node-local, so none of it may be flagged in the compute phase.
type faultGate struct {
	rng      *sim.RNG
	next     int
	edges    []uint64
	deferred []uint64
	stage    *probe.Stage
}

//loft:computephase
func (g *faultGate) Tick(now uint64) {
	for g.next < len(g.edges) && g.edges[g.next] <= now {
		g.stage.EmitSeq(now, probe.KindReserveGrant, 0, 0, 0, 0, g.edges[g.next])
		g.next++
	}
	if g.rng.Bernoulli(0.5) { // per-node stream: draws stay in node order
		g.deferred = append(g.deferred, now)
	}
	if now%64 == 0 {
		g.deferred = g.deferred[:0] // recycling node-local state is fine
	}
}

// comp is auto-seeded via AddTicker but only touches staged surfaces.
type comp struct {
	stage *probe.Stage
}

func (c *comp) Tick(now uint64) {
	c.stage.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0)
}

func wire(k *sim.ParallelKernel, c *comp) {
	k.AddTicker(0, c)
}
