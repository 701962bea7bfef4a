package sim

import (
	"fmt"
	"testing"
	"testing/quick"

	"loft/internal/label"
)

type counter struct {
	ticks   int
	lastNow uint64
}

func (c *counter) Tick(now uint64) { c.ticks++; c.lastNow = now }

func TestKernelStepsComponents(t *testing.T) {
	k := NewKernel()
	c := &counter{}
	k.Add(c)
	k.Run(10)
	if c.ticks != 10 {
		t.Fatalf("ticks=%d, want 10", c.ticks)
	}
	if k.Now() != 10 || c.lastNow != 9 {
		t.Fatalf("Now=%d lastNow=%d", k.Now(), c.lastNow)
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	c := &counter{}
	k.Add(c)
	ok := k.RunUntil(func() bool { return c.ticks >= 5 }, 100)
	if !ok || c.ticks != 5 {
		t.Fatalf("RunUntil: ok=%v ticks=%d", ok, c.ticks)
	}
	if k.RunUntil(func() bool { return false }, 3) {
		t.Fatal("RunUntil reported success for impossible predicate")
	}
}

func TestRegDoubleWritePanics(t *testing.T) {
	r := NewReg[int]("t")
	r.Write(0, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double write did not panic")
		}
	}()
	r.Write(0, 2)
}

// TestRegInit checks registers taken from a slab: Init empties a register
// exactly as NewReg does, where the zero Reg reads as written for cycle 0,
// and names it through its label.
func TestRegInit(t *testing.T) {
	slab := make([]Reg[int], 2)
	slab[0].Init(label.New(func(a, b int) string { return fmt.Sprintf("data %d->%d", a, b) }, 3, 4))
	for now := uint64(0); now < 3; now++ {
		if _, ok := slab[0].Take(now); ok {
			t.Fatalf("initialized register reads a value at cycle %d", now)
		}
	}
	if _, ok := slab[1].Take(0); !ok {
		t.Fatal("zero register reads empty at cycle 0: Init's reason is gone")
	}
	if got := slab[0].Name(); got != "data 3->4" {
		t.Fatalf("Name() = %q", got)
	}
	defer func() {
		if r := recover(); r != "sim: double write to register data 3->4" {
			t.Fatalf("double write panicked with %v", r)
		}
	}()
	slab[0].Write(5, 1)
	slab[0].Write(5, 2)
}

// TestRegWriteSlot checks the in-place write: a value filled through the
// slot is taken in the next cycle and only then, the slot of a later write
// is filled over an old value, and a second write in one cycle panics
// whichever form each write takes.
func TestRegWriteSlot(t *testing.T) {
	type msg struct{ a, b int }
	r := NewReg[msg]("slot")
	for now := uint64(0); now < 6; now++ {
		if now%3 != 2 {
			p := r.WriteSlot(now)
			p.a, p.b = int(now), -int(now)
		}
		v, ok := r.Take(now)
		if wrote := now > 0 && (now-1)%3 != 2; ok != wrote || ok && *v != (msg{int(now) - 1, 1 - int(now)}) {
			t.Fatalf("cycle %d: Take = (%v, %v), wrote in cycle %d: %v", now, v, ok, now-1, wrote)
		}
	}
	for _, second := range []func(){
		func() { r.WriteSlot(10) },
		func() { r.Write(10, msg{}) },
	} {
		r.Init(label.Fixed("slot"))
		r.WriteSlot(10)
		if v := panics(second); v != "sim: double write to register slot" {
			t.Fatalf("second write panicked with %v", v)
		}
	}
	r.Init(label.Fixed("slot"))
	r.Write(10, msg{})
	if v := panics(func() { r.WriteSlot(10) }); v != "sim: double write to register slot" {
		t.Fatalf("WriteSlot after Write panicked with %v", v)
	}
}

// refReg is the two-phase register the stamped Reg replaced: Write fills a
// next side that Update commits at the end of every cycle, dropping a
// committed value nobody took. TestRegLockStep holds Reg to it.
type refReg[T any] struct {
	cur, next     T
	curOK, nextOK bool
	name          string
}

func (r *refReg[T]) Take() (T, bool) {
	v, ok := r.cur, r.curOK
	if ok {
		var zero T
		r.cur, r.curOK = zero, false
	}
	return v, ok
}

func (r *refReg[T]) Write(v T) {
	if r.nextOK {
		panic("sim: double write to register " + r.name)
	}
	r.next, r.nextOK = v, true
}

func (r *refReg[T]) Update() {
	r.cur, r.curOK = r.next, r.nextOK
	var zero T
	r.next, r.nextOK = zero, false
}

// panics reports whether f panics, and with what.
func panics(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// TestRegLockStep drives Reg and refReg with the same random program of
// writes, takes and cycle ends. It requires the same taken values and the
// same double-write panics, and that a value nobody took in the cycle after
// its write cannot be taken in the cycle after that.
func TestRegLockStep(t *testing.T) {
	check := func(prog []byte) bool {
		r := NewReg[int]("lockstep")
		ref := &refReg[int]{name: "lockstep"}
		var now uint64
		for i, op := range prog {
			switch op % 4 {
			case 0:
				v := int(op>>2) + i
				got, want := panics(func() { r.Write(now, v) }), panics(func() { ref.Write(v) })
				if got != want {
					t.Logf("op %d cycle %d: Write panicked with %v, reference with %v", i, now, got, want)
					return false
				}
			case 1, 2:
				p, ok := r.Take(now)
				v, wantOK := ref.Take()
				if ok != wantOK || ok && *p != v {
					t.Logf("op %d cycle %d: Take = (%v, %v), reference (%d, %v)", i, now, p, ok, v, wantOK)
					return false
				}
			case 3:
				dropped := ref.curOK && !ref.nextOK
				ref.Update()
				now++
				if !dropped {
					continue
				}
				// The reference holds nothing now, so this probe keeps the
				// two in step.
				if p, ok := r.Take(now); ok {
					t.Logf("op %d: value %d untaken in cycle %d still readable in cycle %d", i, *p, now-1, now)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	c := NewRNG(8)
	same := 0
	a = NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds collide %d/100 times", same)
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed stuck at zero")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint8) bool {
		r := NewRNG(seed)
		m := int(n%100) + 1
		for i := 0; i < 50; i++ {
			v := r.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGBernoulliRate(t *testing.T) {
	r := NewRNG(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.28 || rate > 0.32 {
		t.Fatalf("Bernoulli(0.3) rate = %f", rate)
	}
}

func TestSeedForDecorrelates(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := SeedFor(42, i)
		if seen[s] {
			t.Fatalf("seed collision at id %d", i)
		}
		seen[s] = true
	}
}
