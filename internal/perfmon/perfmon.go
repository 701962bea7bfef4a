// Package perfmon is the simulator's self-profiler: stage-level wall-time
// attribution for the router pipeline and phase-level telemetry for the
// parallel cycle engine.
//
// The design mirrors the probe/audit observability layers: components hold a
// possibly-nil handle (*Timer per node, *EngineTimer on the ParallelKernel,
// *Monitor on the network) and call it unconditionally. Every per-cycle
// method is an inlinable wrapper that tests the handle for nil before
// calling its body, so a nil handle costs one predictable branch per call
// site and no call — the simulator is unchanged when profiling is off
// (TestDisabledMonitorIsInert pins the no-ops).
//
// When profiling is on, cost is bounded by sampling: timers read the
// monotonic clock only on cycles where now % SampleEvery == 0, and
// accumulate into fixed-size per-owner arrays (no locks, no allocations —
// the steady state stays zero-alloc with a monitor attached). Each Timer is
// owned by exactly one node, so under the parallel engine the accumulators
// are shard-local; the coordinator aggregates them only at snapshot time,
// after a barrier, which keeps the whole layer race-free without atomics.
//
// perfmon is deliberately absent from the determinism analyzer's package
// lists (like internal/runenv): it is the one layer below the CLIs that
// reads wall time. Nothing it measures feeds back into simulation state, so
// profiled runs stay byte-identical to bare runs.
package perfmon

import (
	"runtime"
	"time"
)

// Stage identifies one timed segment of a router pipeline cycle. The wire
// names are stable: they key perf.json stage entries, folded flamegraph
// frames and manifest metric names across runs.
type Stage uint8

const (
	// StageDrain is link/credit register draining at cycle start.
	StageDrain Stage = iota
	// StageFrame is per-slot reservation-table maintenance: LSF table
	// ticks, deferred credit returns, local status resets, verification.
	StageFrame
	// StageSwitch is switch arbitration and link traversal (forwardData
	// plus the NI's injection-link forward).
	StageSwitch
	// StageBooking is packet generation plus injection-link booking (the
	// LSF Request path on the injection table).
	StageBooking
	// StageLookahead is the look-ahead router: VC arbitration and output
	// reservation-table booking for in-flight look-ahead flits.
	StageLookahead
	// StageFlush writes per-cycle accumulators to the output registers.
	StageFlush
	// StageVCAlloc is GSF virtual-channel allocation.
	StageVCAlloc
	// StageGSFFrame is the GSF global frame census and barrier countdown.
	StageGSFFrame
	// StageCommit is the serial cycle-commit work: staged-observation
	// replay, probe sampling and audit sweeps.
	StageCommit

	numStages
)

var stageNames = [numStages]string{
	"drain", "frame", "switch", "booking", "lookahead", "flush",
	"vcalloc", "gsf-frame", "commit",
}

// Name returns the stage's stable wire name.
func (s Stage) Name() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// Phase identifies one phase of a ParallelKernel cycle.
type Phase uint8

const (
	PhaseTick Phase = iota
	PhaseSerial

	numPhases
)

// DefaultSampleEvery is the default sampling period in cycles. At the
// simulator's typical ~100µs/cycle it keeps the enabled-mode clock-read
// overhead well under 1% while still collecting hundreds of sampled cycles
// from a short run.
const DefaultSampleEvery = 64

// Config parameterizes a Monitor.
type Config struct {
	// SampleEvery is the sampling period in cycles: timers read the clock
	// only when now % SampleEvery == 0. 0 means DefaultSampleEvery.
	SampleEvery uint64
}

// gauge is one registered occupancy/utilization gauge with its running
// sample statistics (sum/max over sampled cycles).
type gauge struct {
	name string
	fn   func() float64
	sum  float64
	max  float64
	n    uint64
}

// Monitor owns a run's profiling state: the monotonic time base, the
// sampling schedule, every per-owner Timer, the engine telemetry and the
// registered gauges. Construction and registration happen at network build
// time; during the run the monitor itself is touched only by the
// coordinator (OnCycle, once per cycle).
type Monitor struct {
	base    time.Time
	every   uint64
	workers int

	cycles  uint64
	sampled uint64
	started bool
	first   int64 // nanos of the first observed cycle
	last    int64 // nanos of the most recent observed cycle

	timers []*Timer
	engine *EngineTimer
	gauges []gauge
}

// New returns an enabled Monitor. A nil *Monitor is the disabled state:
// networks propagate nil handles and every instrumentation site reduces to
// one branch.
func New(cfg Config) *Monitor {
	every := cfg.SampleEvery
	if every == 0 {
		every = DefaultSampleEvery
	}
	return &Monitor{base: time.Now(), every: every}
}

// SetWorkers records the effective node-worker count for the snapshot's
// host context (networks call it when they select the parallel engine; a
// monitor that never hears of one reports 0, sequential).
func (m *Monitor) SetWorkers(w int) {
	if m == nil {
		return
	}
	if w > m.workers {
		m.workers = w
	}
}

// Timer allocates a stage timer owned by one component (one node, or the
// network's serial-commit path). Build-time only.
func (m *Monitor) Timer() *Timer {
	if m == nil {
		return nil
	}
	t := &Timer{base: m.base, every: m.every}
	m.timers = append(m.timers, t)
	return t
}

// Engine returns the monitor's engine timer sized for at least `workers`
// worker slots, creating or growing it as needed. Build-time only.
func (m *Monitor) Engine(workers int) *EngineTimer {
	if m == nil {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if m.engine == nil {
		m.engine = &EngineTimer{base: m.base, every: m.every}
	}
	for len(m.engine.workers) < workers {
		m.engine.workers = append(m.engine.workers, workerSlot{})
	}
	return m.engine
}

// Gauge registers a named occupancy/utilization gauge polled on sampled
// cycles. fn runs on the coordinator (the harness's serial commit), so it
// may read shared network state; it must not allocate. Build-time only.
func (m *Monitor) Gauge(name string, fn func() float64) {
	if m == nil {
		return
	}
	m.gauges = append(m.gauges, gauge{name: name, fn: fn})
}

// OnCycle advances the monitor by one simulated cycle: it maintains the
// observed wall-time window and, on sampled cycles, polls the gauges. Call
// it exactly once per cycle from the coordinator (the harness's serial
// commit, under either engine). A no-op on a nil monitor.
func (m *Monitor) OnCycle(now uint64) {
	if m != nil {
		m.onCycle(now)
	}
}

func (m *Monitor) onCycle(now uint64) {
	m.cycles++
	t := int64(time.Since(m.base))
	if !m.started {
		m.started = true
		m.first = t
	}
	m.last = t
	if now%m.every != 0 {
		return
	}
	m.sampled++
	for i := range m.gauges {
		g := &m.gauges[i]
		v := g.fn()
		g.sum += v
		if g.n == 0 || v > g.max {
			g.max = v
		}
		g.n++
	}
}

// Timer accumulates per-stage wall time for one owner. It is a split
// stopwatch: Begin arms it on sampled cycles, and each Lap attributes the
// time since the previous mark to one stage. All state is owner-local —
// under the parallel engine a node's timer lives and dies on that node's
// shard — so there is no synchronization and no allocation.
type Timer struct {
	base   time.Time
	every  uint64
	active bool
	mark   int64
	nanos  [numStages]uint64
	count  [numStages]uint64
}

// Begin arms the timer for this cycle when the cycle is sampled. A no-op on
// a nil timer.
func (t *Timer) Begin(now uint64) {
	if t != nil {
		t.begin(now)
	}
}

// Out of line so that the nil-checking wrapper stays inlinable.
//
//go:noinline
func (t *Timer) begin(now uint64) {
	if now%t.every != 0 {
		t.active = false
		return
	}
	t.active = true
	t.mark = int64(time.Since(t.base))
}

// Lap attributes the wall time since the previous mark to stage s and
// re-marks. A no-op when the cycle is not sampled or the timer is nil.
func (t *Timer) Lap(s Stage) {
	if t != nil {
		t.lap(s)
	}
}

func (t *Timer) lap(s Stage) {
	if !t.active {
		return
	}
	now := int64(time.Since(t.base))
	t.nanos[s] += uint64(now - t.mark)
	t.count[s]++
	t.mark = now
}

// workerSlot is one worker's tick-phase busy-time accumulators, padded so
// adjacent workers never share a cache line.
type workerSlot struct {
	busy uint64
	n    uint64
	_    [128 - 16]byte
}

// EngineTimer is the ParallelKernel's telemetry: coordinator-side wall time
// per phase (tick dispatch, serial hooks) and per-worker busy time inside
// each dispatched tick phase. The coordinator writes `active`
// and `mark` strictly between barriers and workers read `active` only after
// the dispatch channel send, so the whole structure is race-free without
// atomics; per-worker slots are written only by their owning worker and
// read by the coordinator only after wg.Wait.
type EngineTimer struct {
	base    time.Time
	every   uint64
	active  bool
	mark    int64
	cycles  uint64 // sampled cycles
	wall    [numPhases]uint64
	workers []workerSlot
}

// CycleStart arms the engine timer when cycle `now` is sampled. The
// coordinator calls it before the first dispatch of the cycle. A no-op on a
// nil timer.
func (e *EngineTimer) CycleStart(now uint64) {
	if e != nil {
		e.cycleStart(now)
	}
}

// Out of line so that the nil-checking wrapper stays inlinable.
//
//go:noinline
func (e *EngineTimer) cycleStart(now uint64) {
	if now%e.every != 0 {
		e.active = false
		return
	}
	e.active = true
	e.mark = int64(time.Since(e.base))
}

// PhaseDone attributes the coordinator wall time since the previous mark to
// phase p. The serial phase closes the sampled cycle. A no-op on a nil
// timer.
func (e *EngineTimer) PhaseDone(p Phase) {
	if e != nil {
		e.phaseDone(p)
	}
}

func (e *EngineTimer) phaseDone(p Phase) {
	if !e.active {
		return
	}
	now := int64(time.Since(e.base))
	e.wall[p] += uint64(now - e.mark)
	e.mark = now
	if p == PhaseSerial {
		e.cycles++
	}
}

// WorkerStart returns a start mark for the calling worker's tick phase, or
// -1 when the cycle is not sampled or the timer is nil.
func (e *EngineTimer) WorkerStart() int64 {
	if e == nil {
		return -1
	}
	return e.workerStart()
}

func (e *EngineTimer) workerStart() int64 {
	if !e.active {
		return -1
	}
	return int64(time.Since(e.base))
}

// WorkerDone accumulates the calling worker's tick-phase busy time since
// `start` (from WorkerStart; a no-op when start < 0 or the timer is nil).
func (e *EngineTimer) WorkerDone(i int, start int64) {
	if e != nil {
		e.workerDone(i, start)
	}
}

func (e *EngineTimer) workerDone(i int, start int64) {
	if start < 0 || i >= len(e.workers) {
		return
	}
	w := &e.workers[i]
	w.busy += uint64(int64(time.Since(e.base)) - start)
	w.n++
}

// hostInfo captures the host-parallelism context at snapshot time.
func hostInfo(workers int) Host {
	return Host{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}
}
