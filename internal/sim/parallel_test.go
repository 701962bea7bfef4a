package sim

import (
	"strings"
	"sync/atomic"
	"testing"

	"loft/internal/perfmon"
)

func TestParallelKernelStepsComponents(t *testing.T) {
	k := NewParallelKernel(4)
	defer k.Close()
	cs := make([]*counter, 8)
	for i := range cs {
		cs[i] = &counter{}
		k.AddTicker(i, cs[i])
	}
	k.Run(10)
	for i, c := range cs {
		if c.ticks != 10 {
			t.Fatalf("shard %d: ticks=%d, want 10", i, c.ticks)
		}
		if c.lastNow != 9 {
			t.Fatalf("shard %d: lastNow=%d, want 9", i, c.lastNow)
		}
	}
	if k.Now() != 10 {
		t.Fatalf("Now=%d, want 10", k.Now())
	}
}

func TestParallelKernelClampsWorkers(t *testing.T) {
	k := NewParallelKernel(0)
	defer k.Close()
	if k.Workers() != 1 {
		t.Fatalf("Workers=%d, want 1", k.Workers())
	}
	k.AddTicker(5, &counter{}) // out-of-range shard wraps, must not panic
	k.Run(1)
}

// phaseProbe records the global order of tick and serial callbacks so the
// barrier can be asserted.
type phaseProbe struct {
	seq *[]string // written only under the kernel's phase structure
	mu  chan struct{}
	tag string
}

func (p *phaseProbe) record(s string) {
	p.mu <- struct{}{}
	*p.seq = append(*p.seq, s)
	<-p.mu
}

func (p *phaseProbe) Tick(now uint64) { p.record("tick:" + p.tag) }

func TestParallelKernelPhaseOrdering(t *testing.T) {
	k := NewParallelKernel(3)
	defer k.Close()
	var seq []string
	mu := make(chan struct{}, 1)
	for i := 0; i < 3; i++ {
		k.AddTicker(i, &phaseProbe{seq: &seq, mu: mu, tag: "x"})
	}
	k.AddSerial(func(now uint64) { seq = append(seq, "serial-a") })
	k.AddSerial(func(now uint64) { seq = append(seq, "serial-b") })
	k.Step()
	k.Step()
	cycle := []string{"tick", "tick", "tick", "serial-a", "serial-b"}
	want := append(cycle, cycle...)
	if len(seq) != len(want) {
		t.Fatalf("got %d events, want %d: %v", len(seq), len(want), seq)
	}
	for i, want := range want {
		if !strings.HasPrefix(seq[i], want) {
			t.Fatalf("event %d = %q, want prefix %q (full: %v)", i, seq[i], want, seq)
		}
	}
}

func TestParallelKernelRunUntil(t *testing.T) {
	k := NewParallelKernel(2)
	defer k.Close()
	var ticks atomic.Int64
	k.AddSerial(func(now uint64) { ticks.Add(1) })
	ok := k.RunUntil(func() bool { return ticks.Load() >= 5 }, 100)
	if !ok || ticks.Load() != 5 {
		t.Fatalf("RunUntil: ok=%v ticks=%d", ok, ticks.Load())
	}
	if k.RunUntil(func() bool { return false }, 3) {
		t.Fatal("RunUntil reported success for impossible predicate")
	}
}

func TestParallelKernelCloseRestarts(t *testing.T) {
	k := NewParallelKernel(2)
	c := &counter{}
	k.AddTicker(0, c)
	k.Run(3)
	k.Close()
	k.Close() // idempotent
	k.Run(2)  // restarts the pool transparently
	defer k.Close()
	if c.ticks != 5 || k.Now() != 5 {
		t.Fatalf("ticks=%d Now=%d after restart, want 5,5", c.ticks, k.Now())
	}
}

// TestParallelKernelMoreWorkersThanComponents covers degenerate sharding:
// a pool wider than the component population leaves some shards permanently
// empty, and those workers must still rendezvous at the barrier every cycle
// without stalling or double-stepping the populated shards.
func TestParallelKernelMoreWorkersThanComponents(t *testing.T) {
	k := NewParallelKernel(8)
	defer k.Close()
	cs := make([]*counter, 3)
	for i := range cs {
		cs[i] = &counter{}
		k.AddTicker(i, cs[i])
	}
	var serial uint64
	k.AddSerial(func(now uint64) { serial++ })
	k.Run(25)
	for i, c := range cs {
		if c.ticks != 25 {
			t.Fatalf("shard %d: ticks=%d, want 25", i, c.ticks)
		}
	}
	if serial != 25 || k.Now() != 25 {
		t.Fatalf("serial=%d Now=%d, want 25,25", serial, k.Now())
	}
	// Close-then-restart must also hold with idle shards in the pool.
	k.Close()
	k.Run(5)
	if cs[0].ticks != 30 {
		t.Fatalf("ticks=%d after restart, want 30", cs[0].ticks)
	}
}

func TestParallelKernelPerfTelemetry(t *testing.T) {
	m := perfmon.New(perfmon.Config{SampleEvery: 1})
	k := NewParallelKernel(2)
	defer k.Close()
	k.SetPerf(m.Engine(k.Workers()))
	for i := 0; i < 4; i++ {
		k.AddTicker(i, &counter{})
	}
	k.AddSerial(func(now uint64) { m.OnCycle(now) })
	k.Run(10)
	s := m.Snapshot()
	if s.Engine == nil {
		t.Fatal("no engine telemetry collected")
	}
	if s.Engine.SampledCycles != 10 || s.Engine.Workers != 2 {
		t.Fatalf("engine stat: %+v", s.Engine)
	}
	for _, w := range s.Engine.PerWorker {
		if w.Phases != 10 {
			t.Fatalf("worker %d saw %d tick phases, want 10", w.Worker, w.Phases)
		}
	}
}

type panicker struct{ at uint64 }

func (p *panicker) Tick(now uint64) {
	if now == p.at {
		panic("boom")
	}
}

func TestParallelKernelPropagatesWorkerPanic(t *testing.T) {
	k := NewParallelKernel(2)
	k.AddTicker(0, &panicker{at: 2})
	k.AddTicker(1, &counter{})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic not propagated")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("panic value %v does not mention cause", r)
		}
	}()
	k.Run(10)
}

// TestParallelKernelConcurrentWorkerPanics panics on two shards in the same
// cycle. Both workers record their panic at once, which is what keeps k.mu
// in runShard's recover honest under the race detector; the coordinator must
// re-raise one of them, naming its shard, and leave the pool closed.
func TestParallelKernelConcurrentWorkerPanics(t *testing.T) {
	k := NewParallelKernel(2)
	k.AddTicker(0, &panicker{at: 3})
	k.AddTicker(1, &panicker{at: 3})
	r := func() (r any) {
		defer func() { r = recover() }()
		k.Run(10)
		return nil
	}()
	s, ok := r.(string)
	if !ok {
		t.Fatalf("recovered %v, want the coordinator's re-raised panic", r)
	}
	if !strings.Contains(s, "cycle 3") || !strings.Contains(s, "boom") ||
		!strings.Contains(s, "shard 0 ") && !strings.Contains(s, "shard 1 ") {
		t.Fatalf("panic %q does not name shard 0 or 1, cycle 3 and the cause", s)
	}
	if k.running || k.work != nil {
		t.Fatal("kernel still running after re-raising a worker panic")
	}
	if len(k.panics) != 0 {
		t.Fatalf("%d captured panics left behind", len(k.panics))
	}
}

// TestParallelMatchesSequential drives the same component graph through both
// kernels through the Engine registration surface: a chain of registers where
// each stage consumes its predecessor's previous-cycle output, the pattern
// every network in this repo is built on, plus a serial hook that must see
// every cycle once, after its ticks.
func TestParallelMatchesSequential(t *testing.T) {
	build := func(e Engine) (sums []*int) {
		const stages = 6
		var regs []*Reg[int]
		for i := 0; i < stages; i++ {
			regs = append(regs, NewReg[int]("r"))
		}
		for i := 0; i < stages; i++ {
			in := regs[(i+stages-1)%stages]
			out := regs[i]
			sum := new(int)
			sums = append(sums, sum)
			stage := i
			e.AddTicker(i, tickFunc(func(now uint64) {
				if v, ok := in.Take(now); ok {
					*sum += *v
					out.Write(now, *v+stage)
				} else if now == 0 && stage == 0 {
					out.Write(now, 1)
				}
			}))
		}
		// The serial hook folds the stage sums as they stand after the
		// ticks of each cycle.
		fold := new(int)
		sums = append(sums, fold)
		e.AddSerial(func(now uint64) {
			for _, s := range sums[:stages] {
				*fold += *s * int(now+1)
			}
		})
		return sums
	}

	seqK := NewKernel()
	seqSums := build(seqK)
	seqK.Run(200)

	parK := NewParallelKernel(4)
	defer parK.Close()
	parSums := build(parK)
	parK.Run(200)

	for j := range seqSums {
		if *seqSums[j] != *parSums[j] {
			t.Fatalf("stage %d diverged: sequential=%d parallel=%d", j, *seqSums[j], *parSums[j])
		}
	}
}

type tickFunc func(now uint64)

func (f tickFunc) Tick(now uint64) { f(now) }

// TestParallelKernelRegParity runs a ring of components in which each takes,
// every cycle, the value its neighbour on another shard wrote the cycle
// before, while writing its own for the next. The taker and the writer of
// one register run concurrently in every tick phase, on the two parity
// slots, with only the one barrier per cycle between them; under -race this
// is the test that the slots never overlap.
func TestParallelKernelRegParity(t *testing.T) {
	for _, workers := range []int{2, 3} {
		const n, cycles = 6, 300
		k := NewParallelKernel(workers)
		regs := make([]*Reg[uint64], n)
		for i := range regs {
			regs[i] = NewReg[uint64]("ring")
		}
		bad := make([]int, n)
		for i := 0; i < n; i++ {
			in, out, id := regs[(i+n-1)%n], regs[i], uint64(i)
			k.AddTicker(i, tickFunc(func(now uint64) {
				p, ok := in.Take(now)
				want := (id+n-1)%n*cycles + now - 1
				if now > 0 && (!ok || *p != want) {
					bad[id]++
				}
				out.Write(now, id*cycles+now)
			}))
		}
		k.Run(cycles)
		k.Close()
		for i, b := range bad {
			if b != 0 {
				t.Errorf("workers=%d: component %d took a wrong or missing value in %d cycles", workers, i, b)
			}
		}
	}
}
