package buffers

import (
	"fmt"
	"testing"

	"loft/internal/label"
)

func TestFIFOOrder(t *testing.T) {
	f := NewFIFO[int]("t", 4)
	for i := 1; i <= 4; i++ {
		f.Push(i)
	}
	if !f.Full() || f.Free() != 0 {
		t.Fatal("FIFO should be full")
	}
	for i := 1; i <= 4; i++ {
		v, ok := f.Pop()
		if !ok || v != i {
			t.Fatalf("Pop = (%d,%v), want (%d,true)", v, ok, i)
		}
	}
	if _, ok := f.Pop(); ok {
		t.Fatal("pop from empty")
	}
}

func TestFIFOWraparound(t *testing.T) {
	f := NewFIFO[int]("t", 3)
	for round := 0; round < 10; round++ {
		f.Push(round * 2)
		f.Push(round*2 + 1)
		if v, _ := f.Pop(); v != round*2 {
			t.Fatalf("round %d: wrong order", round)
		}
		if v, _ := f.Pop(); v != round*2+1 {
			t.Fatalf("round %d: wrong order", round)
		}
	}
}

func TestFIFOOverflowPanics(t *testing.T) {
	f := NewFIFO[int]("t", 1)
	f.Push(1)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	f.Push(2)
}

// TestFIFOFrontAt checks that Front reads the item at the head without
// consuming it.
func TestFIFOFrontAt(t *testing.T) {
	f := NewFIFO[int]("t", 4)
	f.Push(10)
	f.Push(20)
	if p := f.Front(); p == nil || *p != 10 {
		t.Fatalf("Front = %v", p)
	}
	if f.Len() != 2 {
		t.Fatal("Front consumed an item")
	}
}

func TestFIFOFrontEmpty(t *testing.T) {
	f := NewFIFO[int]("t", 2)
	if f.Front() != nil {
		t.Fatal("Front of a new FIFO is not nil")
	}
	f.Push(1)
	f.Pop()
	if f.Front() != nil {
		t.Fatal("Front of a drained FIFO is not nil")
	}
	if NewFIFO[int]("zero", 0).Front() != nil {
		t.Fatal("Front of a zero-capacity FIFO is not nil")
	}
}

// TestFIFOFrontFollowsHead checks, across wraparound, that Front points at
// the value the next Pop returns and that a write through it is what Pop
// returns.
func TestFIFOFrontFollowsHead(t *testing.T) {
	f := NewFIFO[int]("t", 3)
	next := 0
	for round := 0; round < 10; round++ {
		for f.Free() > 0 {
			f.Push(next)
			next++
		}
		for i := 0; i < 2; i++ {
			p := f.Front()
			if p == nil || *p != next-f.Len() {
				t.Fatalf("round %d: Front = %v, want %d", round, p, next-f.Len())
			}
			*p += 1000
			want := *p
			if v, ok := f.Pop(); !ok || v != want {
				t.Fatalf("round %d: Pop = (%d,%v), Front held %d", round, v, ok, want)
			}
		}
	}
}

// TestFIFOPushSlotDrop fills slots in place and drops items without
// copying them out, across many wraparounds: the order is that of Push and
// Pop, each dropped slot is zeroed, and both forms panic where Push and Pop
// would fail.
func TestFIFOPushSlotDrop(t *testing.T) {
	type item struct{ a, b int }
	ring := make([]item, 3)
	var f FIFO[item]
	f.Init(label.Fixed("slots"), ring)
	next, want := 0, 0
	for round := 0; round < 10; round++ {
		for f.Free() > 0 {
			p := f.PushSlot()
			if *p != (item{}) {
				t.Fatalf("round %d: PushSlot returned a used slot %+v", round, *p)
			}
			p.a, p.b = next, -next
			next++
		}
		for i := 0; i <= round%f.Cap(); i++ {
			head := f.Front()
			if head == nil || *head != (item{want, -want}) {
				t.Fatalf("round %d: Front = %v, want %d", round, head, want)
			}
			f.Drop()
			if *head != (item{}) {
				t.Fatalf("round %d: dropped slot holds %+v", round, *head)
			}
			want++
		}
	}
	if r := panicValue(func() {
		for {
			f.PushSlot()
		}
	}); r != "buffers: overflow on FIFO slots" {
		t.Fatalf("PushSlot overflow panicked with %v", r)
	}
	for !f.Empty() {
		f.Drop()
	}
	if r := panicValue(f.Drop); r != "buffers: drop on empty FIFO slots" {
		t.Fatalf("Drop on an empty FIFO panicked with %v", r)
	}
}

// panicValue returns what f panics with, or nil.
func panicValue(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func fifoName(a, b int) string { return fmt.Sprintf("q%d.%d", a, b) }

// TestFIFOInitOnOneArray runs two FIFOs whose rings are cut from one array
// through many wraparounds: each keeps its own order and never writes into
// the other's ring, and each reads its label as its name, in panics too.
func TestFIFOInitOnOneArray(t *testing.T) {
	ring := make([]int, 5)
	var a, b FIFO[int]
	a.Init(label.New(fifoName, 1, 0), ring[0:3:3])
	b.Init(label.New(fifoName, 1, 1), ring[3:5:5])
	if a.Cap() != 3 || b.Cap() != 2 || a.Name() != "q1.0" || b.Name() != "q1.1" {
		t.Fatalf("a: cap %d %q, b: cap %d %q", a.Cap(), a.Name(), b.Cap(), b.Name())
	}
	next := [2]int{0, 1000}
	want := [2]int{0, 1000}
	for round := 0; round < 20; round++ {
		for i, f := range []*FIFO[int]{&a, &b} {
			for f.Free() > 0 {
				f.Push(next[i])
				next[i]++
			}
			for j := 0; j <= round%f.Cap(); j++ {
				if v, ok := f.Pop(); !ok || v != want[i] {
					t.Fatalf("round %d FIFO %d: Pop = (%d,%v), want %d", round, i, v, ok, want[i])
				}
				want[i]++
			}
		}
	}
	defer func() {
		if r := recover(); r != "buffers: overflow on FIFO q1.1" {
			t.Fatalf("overflow panicked with %v", r)
		}
	}()
	for {
		b.Push(0)
	}
}

func newCredits(name string, capacity int) *Credits {
	c := new(Credits)
	c.Init(label.Fixed(name), capacity)
	return c
}

func TestCredits(t *testing.T) {
	c := newCredits("t", 2)
	if !c.AtCap() || c.Available() != 2 {
		t.Fatal("bad init")
	}
	c.Consume()
	c.Consume()
	if c.Available() != 0 || c.AtCap() {
		t.Fatal("consume accounting")
	}
	c.Return()
	if c.Available() != 1 {
		t.Fatal("return accounting")
	}
}

func TestCreditUnderflowPanics(t *testing.T) {
	c := newCredits("t", 0)
	defer func() {
		if r := recover(); r != "buffers: credit underflow on t" {
			t.Fatalf("underflow panicked with %v", r)
		}
	}()
	c.Consume()
}

func TestCreditOverflowPanics(t *testing.T) {
	c := newCredits("t", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow did not panic")
		}
	}()
	c.Return()
}
