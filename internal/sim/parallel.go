package sim

import (
	"fmt"
	"sync"

	"loft/internal/perfmon"
)

// Engine is a simulation clock driver: the sequential Kernel and the
// sharded ParallelKernel both implement it, so networks can be built
// against either without caring which one steps them. Every cycle runs the
// same three phases under both: all Ticks, then the serial hooks, then all
// Updates.
type Engine interface {
	// AddTicker registers a compute-phase component (and its Update method,
	// when it has one) on the given shard. Shards only partition work across
	// workers; results do not depend on the assignment.
	AddTicker(shard int, t Ticker)
	// AddUpdater registers an update-phase-only component (e.g. a wire
	// register) on the given shard.
	AddUpdater(shard int, u Updater)
	// AddSerial registers a hook run on one goroutine between the tick and
	// update phases of every cycle, in registration order.
	AddSerial(f func(now uint64))
	// Now reports the current cycle (the next cycle Step will execute).
	Now() uint64
	// Step executes exactly one cycle.
	Step()
	// Run executes n cycles.
	Run(n uint64)
	// RunUntil steps until pred returns true or limit cycles elapsed,
	// reporting whether pred became true.
	RunUntil(pred func() bool, limit uint64) bool
	// Close releases any resources held by the engine (worker goroutines).
	// A closed engine may be stepped again; it restarts transparently.
	Close()
}

var (
	_ Engine = (*Kernel)(nil)
	_ Engine = (*ParallelKernel)(nil)
)

// shard is one worker's partition of the component lists.
type shard struct {
	tickers  []Ticker
	updaters []Updater
}

// Worker phases. The coordinator writes phase between barriers; workers
// read it after the dispatch channel send, which establishes the required
// happens-before edge.
const (
	phaseTick = iota
	phaseUpdate
)

// workerPanic is one captured worker panic, re-raised by the coordinator.
type workerPanic struct {
	shard int
	value any
}

// ParallelKernel advances the same two-phase cycle as Kernel but shards the
// tickers and updaters across a bounded pool of persistent workers. Each
// cycle runs as
//
//	tick phase (parallel)  — every shard ticks its components for cycle t
//	barrier                — all shards done
//	serial hooks           — deterministic merge/commit work (staged probe
//	                         events, audit ops, stats observations, global
//	                         controllers), in registration order
//	update phase (parallel) — every shard commits its registers
//	barrier                — all shards done; t becomes t+1
//
// The contract that makes this sound is the one Kernel already documents:
// a Tick may only read register state committed in earlier cycles and only
// write the "next" side of registers it owns, so tickers in different
// shards never touch the same memory during a phase. Anything that must
// observe cross-shard state (shared statistics, global frame barriers,
// probe/audit sinks) runs in the serial hooks between the phases, where the
// per-shard staging buffers are replayed in a fixed order — which is how
// results stay byte-identical to the sequential kernel for any worker
// count.
type ParallelKernel struct {
	now    uint64
	shards []shard
	serial []func(now uint64)

	running bool
	phase   int
	cycle   uint64
	work    []chan struct{}
	wg      sync.WaitGroup
	exited  sync.WaitGroup

	// perf is the kernel's telemetry hook (nil = off). The coordinator
	// arms it between barriers and workers read it only inside a dispatched
	// phase, so it needs no synchronization beyond the existing barriers.
	perf *perfmon.EngineTimer

	mu sync.Mutex
	// panics collects panics raised inside worker shards; the coordinator
	// re-raises the first one after the barrier so a scheduler fault aborts
	// the run exactly as it does sequentially.
	//
	// Guarded by mu: shards that panic in the same step append concurrently.
	panics []workerPanic
}

// NewParallelKernel returns a kernel sharding work across the given number
// of workers (at least 1). Workers start lazily on the first Step.
func NewParallelKernel(workers int) *ParallelKernel {
	if workers < 1 {
		workers = 1
	}
	return &ParallelKernel{shards: make([]shard, workers)}
}

// Workers returns the worker count.
func (k *ParallelKernel) Workers() int { return len(k.shards) }

// Now reports the current cycle (the next cycle to be executed by Step).
func (k *ParallelKernel) Now() uint64 { return k.now }

// AddTicker registers a compute-phase component on the given shard.
func (k *ParallelKernel) AddTicker(sh int, t Ticker) {
	s := &k.shards[sh%len(k.shards)]
	s.tickers = append(s.tickers, t)
	if u, ok := t.(Updater); ok {
		s.updaters = append(s.updaters, u)
	}
}

// AddUpdater registers an update-phase-only component (e.g. a wire
// register) on the given shard. The shard only balances load: barriers
// separate the phases, so any partition of the updaters is correct.
func (k *ParallelKernel) AddUpdater(sh int, u Updater) {
	s := &k.shards[sh%len(k.shards)]
	s.updaters = append(s.updaters, u)
}

// SetPerf attaches an engine telemetry timer (nil detaches). Must be called
// before the first Step, alongside component registration.
func (k *ParallelKernel) SetPerf(t *perfmon.EngineTimer) { k.perf = t }

// AddSerial registers a hook run between the tick barrier and the update
// phase, on the coordinator goroutine, in registration order. Networks use
// it to replay per-shard staging buffers deterministically and to run
// global per-cycle controllers.
func (k *ParallelKernel) AddSerial(f func(now uint64)) {
	k.serial = append(k.serial, f)
}

// start launches the worker pool.
func (k *ParallelKernel) start() {
	k.work = make([]chan struct{}, len(k.shards))
	for i := range k.shards {
		ch := make(chan struct{}, 1)
		k.work[i] = ch
		k.exited.Add(1)
		go k.worker(i, ch)
	}
	k.running = true
}

// Close stops the worker pool and waits for it to exit. Safe to call
// multiple times; a later Step restarts the pool.
func (k *ParallelKernel) Close() {
	if !k.running {
		return
	}
	for _, ch := range k.work {
		close(ch)
	}
	k.exited.Wait()
	k.work = nil
	k.running = false
}

func (k *ParallelKernel) worker(i int, ch <-chan struct{}) {
	defer k.exited.Done()
	for range ch {
		k.runShard(i)
	}
}

// runShard executes one phase of one shard. It is the per-cycle worker-side
// hot path: the whole compute phase of every node in the shard runs under
// this frame.
func (k *ParallelKernel) runShard(i int) {
	defer k.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			k.mu.Lock()
			k.panics = append(k.panics, workerPanic{shard: i, value: r})
			k.mu.Unlock()
		}
	}()
	var start int64
	if k.perf != nil {
		start = k.perf.WorkerStart()
	}
	sh := &k.shards[i]
	now := k.cycle
	if k.phase == phaseTick {
		for _, t := range sh.tickers {
			t.Tick(now)
		}
		if k.perf != nil {
			k.perf.WorkerDone(i, perfmon.PhaseTick, start)
		}
		return
	}
	for _, u := range sh.updaters {
		u.Update(now)
	}
	if k.perf != nil {
		k.perf.WorkerDone(i, perfmon.PhaseUpdate, start)
	}
}

// dispatch releases every worker for the current phase and waits for the
// barrier.
func (k *ParallelKernel) dispatch() {
	k.wg.Add(len(k.work))
	for _, ch := range k.work {
		ch <- struct{}{}
	}
	k.wg.Wait()
	k.checkPanics()
}

// checkPanics re-raises the first captured worker panic on the coordinator.
func (k *ParallelKernel) checkPanics() {
	k.mu.Lock()
	n := len(k.panics)
	var first workerPanic
	if n > 0 {
		first = k.panics[0]
		k.panics = k.panics[:0]
	}
	k.mu.Unlock()
	if n > 0 {
		k.Close()
		panic(fmt.Sprintf("sim: shard %d panicked during cycle %d: %v", first.shard, k.cycle, first.value))
	}
}

// Step executes exactly one cycle: parallel tick, barrier, serial hooks,
// parallel update, barrier.
func (k *ParallelKernel) Step() {
	if !k.running {
		k.start()
	}
	k.cycle = k.now
	if k.perf != nil {
		k.perf.CycleStart(k.now)
	}
	k.phase = phaseTick
	k.dispatch()
	if k.perf != nil {
		k.perf.PhaseDone(perfmon.PhaseTick)
	}
	for _, f := range k.serial {
		f(k.cycle)
	}
	if k.perf != nil {
		k.perf.PhaseDone(perfmon.PhaseSerial)
	}
	k.phase = phaseUpdate
	k.dispatch()
	if k.perf != nil {
		k.perf.PhaseDone(perfmon.PhaseUpdate)
	}
	k.now++
}

// Run executes n cycles.
func (k *ParallelKernel) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		k.Step()
	}
}

// RunUntil steps the kernel until pred returns true or limit cycles
// elapsed. It reports whether pred became true.
func (k *ParallelKernel) RunUntil(pred func() bool, limit uint64) bool {
	for i := uint64(0); i < limit; i++ {
		if pred() {
			return true
		}
		k.Step()
	}
	return pred()
}
