package sim

import (
	"fmt"
	"sync"

	"loft/internal/perfmon"
)

// Engine is a simulation clock driver: the sequential Kernel and the
// sharded ParallelKernel both implement it, so networks can be built
// against either without caring which one steps them. Every cycle runs the
// same way under both: all Ticks, then the serial hooks.
type Engine interface {
	// AddTicker registers a compute-phase component on the given shard.
	// Shards only partition work across workers; results do not depend on
	// the assignment.
	AddTicker(shard int, t Ticker)
	// AddSerial registers a hook run on one goroutine after the ticks of
	// every cycle, in registration order.
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

// workerPanic is one captured worker panic, re-raised by the coordinator.
type workerPanic struct {
	shard int
	value any
}

// ParallelKernel advances the same cycle as Kernel but shards the tickers
// across a bounded pool of persistent workers. Each cycle runs as
//
//	tick phase (parallel) — every shard ticks its components for cycle t
//	barrier               — all shards done
//	serial hooks          — deterministic merge/commit work (staged probe
//	                        events, audit ops, stats observations, global
//	                        controllers), in registration order; t becomes t+1
//
// The contract that makes this sound is the one Kernel already documents:
// a Tick may only take register values written in earlier cycles and
// write registers for later ones. A register keeps the two in different
// slots, so a writer on one shard and a reader on another never touch the
// same memory within a cycle, and the barrier orders them across cycles.
// Anything that must observe cross-shard state (shared statistics, global
// frame barriers, probe/audit sinks) runs in the serial hooks, where the
// per-shard staging buffers are replayed in a fixed order — which is how
// results stay byte-identical to the sequential kernel for any worker
// count.
type ParallelKernel struct {
	now    uint64
	shards [][]Ticker // one worker's partition of the tickers each
	serial []func(now uint64)

	running bool
	cycle   uint64
	work    []chan struct{}
	wg      sync.WaitGroup
	exited  sync.WaitGroup

	// perf is the kernel's telemetry hook (nil = off). The coordinator
	// arms it between barriers and workers read it only inside a dispatched
	// tick phase, so it needs no synchronization beyond the barrier.
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
	return &ParallelKernel{shards: make([][]Ticker, workers)}
}

// Workers returns the worker count.
func (k *ParallelKernel) Workers() int { return len(k.shards) }

// Now reports the current cycle (the next cycle to be executed by Step).
func (k *ParallelKernel) Now() uint64 { return k.now }

// AddTicker registers a compute-phase component on the given shard.
func (k *ParallelKernel) AddTicker(sh int, t Ticker) {
	i := sh % len(k.shards)
	k.shards[i] = append(k.shards[i], t)
}

// SetPerf attaches an engine telemetry timer (nil detaches). Must be called
// before the first Step, alongside component registration.
func (k *ParallelKernel) SetPerf(t *perfmon.EngineTimer) { k.perf = t }

// AddSerial registers a hook run after the tick barrier, on the
// coordinator goroutine, in registration order. Networks use it to replay
// per-shard staging buffers deterministically and to run global per-cycle
// controllers.
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

// runShard executes one shard's tick phase. It is the per-cycle worker-side
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
	start := k.perf.WorkerStart()
	now := k.cycle
	for _, t := range k.shards[i] {
		t.Tick(now)
	}
	k.perf.WorkerDone(i, start)
}

// dispatch releases every worker for the tick phase and waits for the
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

// Step executes exactly one cycle: parallel tick, barrier, serial hooks.
func (k *ParallelKernel) Step() {
	if !k.running {
		k.start()
	}
	k.cycle = k.now
	k.perf.CycleStart(k.now)
	k.dispatch()
	k.perf.PhaseDone(perfmon.PhaseTick)
	for _, f := range k.serial {
		f(k.cycle)
	}
	k.perf.PhaseDone(perfmon.PhaseSerial)
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
