package lsf

// CyclesPerSlot returns the record timestamps' cycles per slot (SetStamp).
func (t *Table) CyclesPerSlot() uint64 { return t.slotCycles }

// BufferCap returns BN, the downstream buffer capacity in quanta.
func (t *Table) BufferCap() int { return t.p.BufferQuanta }

// FrameCount returns WF, the number of frames in the window.
func (t *Table) FrameCount() int { return t.p.Frames }

// EndCredit returns the cumulative virtual credit of the farthest window
// slot. By the appendix eq. 3 semantics this equals BN minus the quanta
// booked but not yet credit-returned, so the invariant
// EndCredit() == BufferCap() - Outstanding() (and ≥ 0) is the constructive
// form of the condition-(1)/Theorem-I admission inequality the auditor
// checks at every grant.
func (t *Table) EndCredit() int { return t.end }

// Fault selects a deliberate bookkeeping corruption, used by the runtime
// auditor's tests to prove a broken scheduler is caught. FaultNone (the
// zero value) disarms.
type Fault uint8

const (
	FaultNone Fault = iota
	// FaultDropSkipped omits the skipped(i) accumulation when a flow
	// abandons a frame — the §4.2 accounting the anomaly fix depends on.
	FaultDropSkipped
	// FaultLeakCredit drops the per-slot increments of a virtual-credit
	// return while still counting the return, desynchronizing the
	// cumulative credit sums from the outstanding count.
	FaultLeakCredit
)

// InjectFault arms a deliberate scheduler corruption (test hook; see Fault).
func (t *Table) InjectFault(f Fault) { t.fault = f }
