// Package buffers provides the storage primitives shared by the router
// models: bounded FIFOs, credit counters, and the central/speculative buffer
// pair used by the LOFT data network (§4.3.1, Fig. 9).
package buffers

import "loft/internal/label"

// FIFO is a bounded first-in first-out queue over a ring. Owners that keep
// many FIFOs embed them by value and cut their rings from one array (Init).
type FIFO[T any] struct {
	buf   []T
	head  int
	count int
	name  label.Label
}

// NewFIFO returns a FIFO with the given capacity. Capacity 0 is legal and
// models a buffer that can never accept (used for spec=0 configurations).
func NewFIFO[T any](name string, capacity int) *FIFO[T] {
	if capacity < 0 {
		panic("buffers: negative FIFO capacity")
	}
	f := new(FIFO[T])
	f.Init(label.Fixed(name), make([]T, capacity))
	return f
}

// Init empties f and names it, with ring as its storage: the in-place form
// of NewFIFO. The capacity is len(ring), and f owns ring from now on.
func (f *FIFO[T]) Init(name label.Label, ring []T) {
	*f = FIFO[T]{buf: ring, name: name}
}

// Name returns the FIFO's diagnostic name.
func (f *FIFO[T]) Name() string { return f.name.String() }

// Len returns the number of queued items.
func (f *FIFO[T]) Len() int { return f.count }

// Cap returns the capacity.
func (f *FIFO[T]) Cap() int { return len(f.buf) }

// Free returns the remaining space.
func (f *FIFO[T]) Free() int { return len(f.buf) - f.count }

// Empty reports whether the FIFO holds no items.
func (f *FIFO[T]) Empty() bool { return f.count == 0 }

// Full reports whether no space remains.
func (f *FIFO[T]) Full() bool { return f.count == len(f.buf) }

// Push appends v. It panics on overflow: callers must check Free first
// (credit flow control guarantees it in a correct model).
func (f *FIFO[T]) Push(v T) { *f.PushSlot() = v }

// PushSlot appends an item and returns its ring slot for the caller to fill
// in place, which saves copying a large T through a value. The slot holds
// the zero T unless Init was handed a ring with items in it, since Pop and
// Drop zero the slots they free. It panics on overflow, as Push does.
func (f *FIFO[T]) PushSlot() *T {
	if f.Full() {
		panic("buffers: overflow on FIFO " + f.Name())
	}
	i := f.head + f.count
	if i >= len(f.buf) {
		i -= len(f.buf)
	}
	f.count++
	return &f.buf[i]
}

// Pop removes and returns the oldest item.
func (f *FIFO[T]) Pop() (T, bool) {
	if f.count == 0 {
		var zero T
		return zero, false
	}
	v := f.buf[f.head]
	f.Drop()
	return v, true
}

// Drop removes the oldest item without copying it out: the form of Pop for
// a caller that has read the item in place through Front. Its slot is
// zeroed. It panics when the FIFO is empty.
func (f *FIFO[T]) Drop() {
	if f.count == 0 {
		panic("buffers: drop on empty FIFO " + f.Name())
	}
	var zero T
	f.buf[f.head] = zero
	if f.head++; f.head == len(f.buf) {
		f.head = 0
	}
	f.count--
}

// Front returns the oldest item in place, or nil when the FIFO is empty. The
// pointer aliases the FIFO's storage, which the next Pop clears.
func (f *FIFO[T]) Front() *T {
	if f.count == 0 {
		return nil
	}
	return &f.buf[f.head]
}

// Credits tracks credit-based flow control toward one downstream buffer.
// Owners embed their counters and set each up with Init.
type Credits struct {
	avail int
	cap   int
	name  label.Label
}

// Init sets the counter to the downstream capacity, every credit home.
func (c *Credits) Init(name label.Label, capacity int) {
	if capacity < 0 {
		panic("buffers: negative credit capacity")
	}
	*c = Credits{avail: capacity, cap: capacity, name: name}
}

// Name returns the counter's diagnostic name.
func (c *Credits) Name() string { return c.name.String() }

// Available returns the current credit count.
func (c *Credits) Available() int { return c.avail }

// Consume spends one credit; it panics when none remain.
func (c *Credits) Consume() {
	if c.avail == 0 {
		panic("buffers: credit underflow on " + c.Name())
	}
	c.avail--
}

// Return restores one credit; it panics past the capacity (a protocol bug:
// more returns than sends).
func (c *Credits) Return() {
	if c.avail == c.cap {
		panic("buffers: credit overflow on " + c.Name())
	}
	c.avail++
}

// AtCap reports whether every credit is home, i.e. the downstream buffer is
// known empty. LOFT's local status reset uses this condition (§4.3.2).
func (c *Credits) AtCap() bool { return c.avail == c.cap }
