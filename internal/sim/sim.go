// Package sim provides the cycle-accurate simulation kernel used by every
// network model in this repository.
//
// The kernel advances a single global clock. Components implement Ticker and
// are stepped in two phases each cycle:
//
//  1. Tick(now): a component reads the *current* outputs of pipeline
//     registers (written in earlier cycles) and writes its own outputs to the
//     *next* side of registers.
//  2. Update(now): every registered register and component commits its next
//     state, making it visible for the following cycle.
//
// Because no component observes a value written during the same Tick phase,
// the simulation result is independent of component iteration order, which
// makes runs deterministic and models a synchronous hardware design with
// one-cycle link and wire latencies.
package sim

// Ticker is a hardware block stepped once per cycle.
type Ticker interface {
	// Tick performs the compute phase for the given cycle. Implementations
	// must only read committed register state and write to the "next" side
	// of registers.
	Tick(now uint64)
}

// Updater is implemented by components that hold internal pipeline state
// which must be committed at the end of each cycle.
type Updater interface {
	Update(now uint64)
}

// Kernel owns the clock and the component list.
type Kernel struct {
	now      uint64
	tickers  []Ticker
	serial   []func(now uint64)
	updaters []Updater
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current cycle (the next cycle to be executed by Step).
func (k *Kernel) Now() uint64 { return k.now }

// Add registers a component. If it also implements Updater the update phase
// is wired automatically.
func (k *Kernel) Add(t Ticker) {
	k.tickers = append(k.tickers, t)
	if u, ok := t.(Updater); ok {
		k.updaters = append(k.updaters, u)
	}
}

// AddTicker implements Engine: one goroutine steps every component, so the
// shard is ignored.
func (k *Kernel) AddTicker(_ int, t Ticker) { k.Add(t) }

// AddUpdater registers an update-phase-only component (e.g. a wire register).
func (k *Kernel) AddUpdater(_ int, u Updater) { k.updaters = append(k.updaters, u) }

// AddSerial registers a hook run after every Tick and before any Update of a
// cycle, in registration order — where ParallelKernel runs its serial hooks.
func (k *Kernel) AddSerial(f func(now uint64)) { k.serial = append(k.serial, f) }

// Step executes exactly one cycle.
func (k *Kernel) Step() {
	now := k.now
	for _, t := range k.tickers {
		t.Tick(now)
	}
	for _, f := range k.serial {
		f(now)
	}
	for _, u := range k.updaters {
		u.Update(now)
	}
	k.now++
}

// Run executes n cycles.
func (k *Kernel) Run(n uint64) {
	for i := uint64(0); i < n; i++ {
		k.Step()
	}
}

// RunUntil steps the kernel until pred returns true or limit cycles elapsed.
// It reports whether pred became true.
func (k *Kernel) RunUntil(pred func() bool, limit uint64) bool {
	for i := uint64(0); i < limit; i++ {
		if pred() {
			return true
		}
		k.Step()
	}
	return pred()
}

// Close implements Engine; the sequential kernel holds no resources.
func (k *Kernel) Close() {}
