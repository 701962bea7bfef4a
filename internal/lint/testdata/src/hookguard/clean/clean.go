// Package clean is the hookguard clean-negative corpus: every sink call is
// dominated by a nil check of its receiver, or a stage emission by the
// stage's own Wants.
package clean

import (
	"loft/internal/audit"
	"loft/internal/lsf"
	"loft/internal/perfmon"
	"loft/internal/probe"
)

type router struct {
	probe   *probe.Probe
	stage   *probe.Stage
	trc     *probe.Tracer
	aud     lsf.AuditSink
	live    *audit.Auditor
	perf    *perfmon.Timer
	eng     *perfmon.EngineTimer
	mon     *perfmon.Monitor
	enabled bool
}

// Enclosing if.
func (r *router) tick(now uint64) {
	if r.probe != nil {
		r.probe.MaybeSample(now)
	}
	if r.stage != nil {
		r.stage.EmitSeq(now, probe.KindDataInject, 0, 0, 0, 1, 0)
	}
	if r.live != nil {
		r.live.OnCycle(now)
		r.live.Record(&probe.Record{})
	}
}

// A stage's Wants is its one-branch guard, alone or as a conjunct; draining
// a stage is the owner's commit-side job, not a per-occurrence sink.
func (r *router) wanted(now uint64, head bool) {
	if r.stage.Wants(probe.KindEject) {
		r.stage.EmitAux(now, probe.KindEject, 0, 0, 0, 0, 0, 1)
	}
	if head && r.stage.Wants(probe.KindGSFInject) {
		r.stage.EmitSeq(now, probe.KindGSFInject, 0, -1, 0, 1, 0)
	}
	_ = r.stage.Drain()
}

// Conjunct of an && chain.
func (r *router) conditional(now uint64) {
	if r.enabled && r.probe != nil {
		r.probe.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0)
	}
}

// Terminating early-return guard dominates the rest of the function.
func (r *router) earlyReturn(slot uint64) {
	if r.aud == nil {
		return
	}
	r.aud.AuditGrant(0, 1, slot, 0)
	r.aud.AuditReturn(slot)
}

// Else branch of an == nil check.
func (r *router) elseBranch(now uint64) {
	if r.trc == nil {
		now++
	} else {
		r.trc.Emit(probe.Event{})
	}
}

// Guards survive into nested loops and switches.
func (r *router) nested(now uint64) {
	if r.probe == nil {
		return
	}
	for i := 0; i < 4; i++ {
		switch {
		case i%2 == 0:
			r.probe.Emit(now, probe.KindReserveGrant, 0, 0, int32(i), 0)
		}
	}
}

// Perfmon sinks under every guard shape the analyzer recognizes.
func (r *router) profiled(now uint64) {
	if r.perf != nil {
		r.perf.Begin(now)
		r.perf.Lap(perfmon.StageBooking)
	}
	if r.enabled && r.eng != nil {
		r.eng.CycleStart(now)
		r.eng.PhaseDone(perfmon.PhaseTick)
	}
	if r.mon == nil {
		return
	}
	r.mon.OnCycle(now)
}

// Worker-side engine laps behind an early-return guard, as the parallel
// kernel's shard loop writes them.
func (r *router) shard(now uint64) {
	if r.eng == nil {
		return
	}
	start := r.eng.WorkerStart()
	r.eng.WorkerDone(0, start)
}

// Handle-style calls (Registry/Counter, Monitor.Timer/Engine/Gauge/
// Snapshot) are deliberately not sinks: the no-op lives in the handle
// itself and call sites are expected to stay unconditional.
func (r *router) handles() {
	r.probe.Registry().Counter("clean.count").Inc()
	r.perf = r.mon.Timer()
	r.eng = r.mon.Engine(2)
	_ = r.mon.Snapshot()
}
