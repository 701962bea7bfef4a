package sim

import "loft/internal/label"

// Reg is a one-entry pipeline register carrying values of type T across a
// cycle boundary. A value written during Tick of cycle n becomes readable
// during Tick of cycle n+1, and only then: a value nobody takes in that
// cycle is gone. Reg models a wire/latch with one cycle of latency; links
// between routers are built from them.
//
// The register needs no commit step. It holds two slots indexed by cycle
// parity, each stamped with the cycle in which it may be read: a write in
// cycle n fills slot (n+1)&1 and a read in cycle n looks at slot n&1, so
// the writer and the reader of one cycle never touch the same slot.
//
// A Reg holds at most one value per cycle. Writing twice in the same cycle
// panics: it indicates a structural hazard in the model (two drivers on one
// wire), which must be resolved by arbitration in the writer.
type Reg[T any] struct {
	slot [2]T
	at   [2]uint64 // cycle in which slot[i] is readable; noCycle when empty
	name label.Label
}

// noCycle stamps an empty slot: no cycle ever reaches it.
const noCycle = ^uint64(0)

// NewReg returns an empty register. The name is used in hazard panics.
func NewReg[T any](name string) *Reg[T] {
	r := new(Reg[T])
	r.Init(label.Fixed(name))
	return r
}

// Init empties r and names it: the in-place form of NewReg, for owners that
// take their registers from one slab. A register must be initialized before
// use: the zero Reg reads as written for cycle 0.
func (r *Reg[T]) Init(name label.Label) {
	*r = Reg[T]{at: [2]uint64{noCycle, noCycle}, name: name}
}

// Name returns the register's diagnostic name.
func (r *Reg[T]) Name() string { return r.name.String() }

// Take consumes the value written in cycle now-1. It returns a pointer into
// the register, valid until the end of cycle now, and false when nothing
// was written.
func (r *Reg[T]) Take(now uint64) (*T, bool) {
	i := now & 1
	if r.at[i] != now {
		return nil, false
	}
	r.at[i] = noCycle
	return &r.slot[i], true
}

// Ready reports whether a value written in cycle now-1 waits to be taken in
// cycle now, without taking it.
func (r *Reg[T]) Ready(now uint64) bool { return r.at[now&1] == now }

// Write stores v for reading in cycle now+1. It panics when a value was
// already written in cycle now, signalling two drivers in the same cycle.
func (r *Reg[T]) Write(now uint64, v T) { *r.WriteSlot(now) = v }

// WriteSlot is Write that returns the slot for the caller to fill in place,
// which saves copying a large T through a value. The slot still holds the
// value of an earlier cycle: the caller sets every field. It panics on a
// second write in cycle now, as Write does.
func (r *Reg[T]) WriteSlot(now uint64) *T {
	i := (now + 1) & 1
	if r.at[i] == now+1 {
		panic("sim: double write to register " + r.Name())
	}
	r.at[i] = now + 1
	return &r.slot[i]
}
