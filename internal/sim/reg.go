package sim

// Reg is a one-entry pipeline register carrying values of type T across a
// cycle boundary. A value written during Tick of cycle n becomes readable
// during Tick of cycle n+1. Reg models a wire/latch with one cycle of
// latency; links between routers are built from them.
//
// A Reg holds at most one value per cycle. Writing twice in the same cycle
// panics: it indicates a structural hazard in the model (two drivers on one
// wire), which must be resolved by arbitration in the writer.
type Reg[T any] struct {
	cur, next  T
	curOK      bool
	nextOK     bool
	name       string
	unconsumed bool // cur was not Taken before the next Update
}

// NewReg returns an empty register. The name is used in hazard panics.
func NewReg[T any](name string) *Reg[T] { return &Reg[T]{name: name} }

// Name returns the register's diagnostic name.
func (r *Reg[T]) Name() string { return r.name }

// Peek returns the committed value, if any, without consuming it.
func (r *Reg[T]) Peek() (T, bool) { return r.cur, r.curOK }

// Full reports whether a committed value is present.
func (r *Reg[T]) Full() bool { return r.curOK }

// Take consumes and returns the committed value. The second result is false
// when the register is empty.
func (r *Reg[T]) Take() (T, bool) {
	v, ok := r.cur, r.curOK
	if ok {
		var zero T
		r.cur, r.curOK = zero, false
	}
	return v, ok
}

// Write stores v on the next side of the register. It panics when the next
// side is already occupied, signalling two drivers in the same cycle.
func (r *Reg[T]) Write(v T) {
	if r.nextOK {
		panic("sim: double write to register " + r.name)
	}
	r.next, r.nextOK = v, true
}

// Update commits the next value. An unconsumed committed value is dropped;
// receivers that need back-pressure must model it with credits, exactly as
// the hardware does.
func (r *Reg[T]) Update(uint64) {
	r.unconsumed = r.curOK
	r.cur, r.curOK = r.next, r.nextOK
	var zero T
	r.next, r.nextOK = zero, false
}

// DroppedLast reports whether the previous Update discarded an unconsumed
// value. Integration tests use it as an assertion hook: in a correctly
// credited design no value is ever dropped.
func (r *Reg[T]) DroppedLast() bool { return r.unconsumed }
