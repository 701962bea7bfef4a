// Package a is the hookguard true-positive corpus: every sink call here
// lacks a dominating nil check and must be flagged.
package a

import (
	"loft/internal/audit"
	"loft/internal/lsf"
	"loft/internal/perfmon"
	"loft/internal/probe"
)

type router struct {
	probe *probe.Probe
	stage *probe.Stage
	trc   *probe.Tracer
	aud   lsf.AuditSink
	live  *audit.Auditor
	perf  *perfmon.Timer
	eng   *perfmon.EngineTimer
	mon   *perfmon.Monitor
}

func (r *router) tick(now uint64) {
	r.probe.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0)        // want `sink call probe\.Probe\.Emit on unguarded receiver r\.probe`
	r.probe.MaybeSample(now)                                     // want `sink call probe\.Probe\.MaybeSample on unguarded receiver`
	r.stage.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0)        // want `sink call probe\.Stage\.Emit on unguarded receiver r\.stage`
	r.stage.EmitSeq(now, probe.KindDataInject, 0, 0, 0, 1, 0)    // want `sink call probe\.Stage\.EmitSeq on unguarded receiver`
	r.stage.EmitAux(now, probe.KindDataInject, 0, 0, 0, 1, 0, 8) // want `sink call probe\.Stage\.EmitAux on unguarded receiver`
	r.trc.Emit(probe.Event{})                                    // want `sink call probe\.Tracer\.Emit on unguarded receiver`
	r.live.OnCycle(now)                                          // want `sink call audit\.Auditor\.OnCycle on unguarded receiver`
	r.live.Record(&probe.Record{})                               // want `sink call audit\.Auditor\.Record on unguarded receiver`
}

// Another stage's Wants does not dominate this one's emission.
func (r *router) wrongStage(other *probe.Stage, now uint64) {
	if other.Wants(probe.KindEject) {
		r.stage.EmitAux(now, probe.KindEject, 0, 0, 0, 0, 0, 1) // want `sink call probe\.Stage\.EmitAux on unguarded receiver r\.stage`
	}
}

func (r *router) profile(now uint64) {
	r.perf.Begin(now)                  // want `sink call perfmon\.Timer\.Begin on unguarded receiver r\.perf`
	r.perf.Lap(perfmon.StageBooking)   // want `sink call perfmon\.Timer\.Lap on unguarded receiver`
	r.eng.CycleStart(now)              // want `sink call perfmon\.EngineTimer\.CycleStart on unguarded receiver`
	r.eng.PhaseDone(perfmon.PhaseTick) // want `sink call perfmon\.EngineTimer\.PhaseDone on unguarded receiver`
	start := r.eng.WorkerStart()       // want `sink call perfmon\.EngineTimer\.WorkerStart on unguarded receiver`
	r.eng.WorkerDone(0, start)         // want `sink call perfmon\.EngineTimer\.WorkerDone on unguarded receiver`
	r.mon.OnCycle(now)                 // want `sink call perfmon\.Monitor\.OnCycle on unguarded receiver`
}

func (r *router) grant(slot uint64) {
	r.aud.AuditGrant(0, 1, slot, 0) // want `sink call lsf\.AuditSink\.AuditGrant on unguarded receiver`
}

// A guard on a different receiver does not dominate this one.
func (r *router) wrongGuard(other *probe.Probe, now uint64) {
	if other != nil {
		r.probe.Emit(now, probe.KindReserveGrant, 0, 0, 0, 0) // want `sink call probe\.Probe\.Emit on unguarded receiver`
	}
}

// A non-terminating nil check does not dominate the statements after it.
func (r *router) fallthroughGuard(now uint64) {
	if r.probe == nil {
		now++
	}
	r.probe.MaybeSample(now) // want `sink call probe\.Probe\.MaybeSample on unguarded receiver`
}
