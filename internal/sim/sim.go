// Package sim provides the cycle-accurate simulation kernel used by every
// network model in this repository.
//
// The kernel advances a single global clock. Each cycle has one compute
// phase and then the serial hooks:
//
//  1. Tick(now): every component reads the registers written in cycle now-1
//     and writes its own outputs for cycle now+1.
//  2. The serial hooks run in registration order, on one goroutine.
//
// Registers (Reg) are stamped with the cycle in which their value may be
// read, so they need no commit step between cycles. Because no component
// observes a value written during the same cycle, the simulation result is
// independent of component iteration order, which makes runs deterministic
// and models a synchronous hardware design with one-cycle link and wire
// latencies.
package sim

// Ticker is a hardware block stepped once per cycle.
type Ticker interface {
	// Tick performs the compute phase for the given cycle. Implementations
	// must only take register values written in earlier cycles and write
	// registers for later ones.
	Tick(now uint64)
}

// Kernel owns the clock and the component list.
type Kernel struct {
	now     uint64
	tickers []Ticker
	serial  []func(now uint64)
}

// NewKernel returns an empty kernel at cycle 0.
func NewKernel() *Kernel { return &Kernel{} }

// Now reports the current cycle (the next cycle to be executed by Step).
func (k *Kernel) Now() uint64 { return k.now }

// Add registers a component.
func (k *Kernel) Add(t Ticker) { k.tickers = append(k.tickers, t) }

// AddTicker implements Engine: one goroutine steps every component, so the
// shard is ignored.
func (k *Kernel) AddTicker(_ int, t Ticker) { k.Add(t) }

// AddSerial registers a hook run after every Tick of a cycle, in
// registration order — where ParallelKernel runs its serial hooks.
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
