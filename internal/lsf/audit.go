package lsf

import "loft/internal/flit"

// AuditSink observes scheduler bookkeeping mutations for the runtime
// invariant auditor (internal/audit). Every method is called synchronously
// from the scheduling path immediately after the mutation it describes, so
// implementations can cross-check the table's own state; they must be
// cheap, must not mutate the table, and must not panic. A nil sink keeps
// the hooks disabled (one nil-interface test per site).
type AuditSink interface {
	// AuditGrant: a quantum of flow f was booked at absolute slot time
	// `slot` from injection frame `frame`.
	AuditGrant(f flit.FlowID, quantum, slot uint64, frame int)
	// AuditFrameAdvance: flow f advanced out of injection frame `frame`,
	// abandoning `abandoned` unused reservations into skipped(frame).
	AuditFrameAdvance(f flit.FlowID, frame, abandoned int)
	// AuditRecycle: the head frame advanced and `frame` was recycled (its
	// skipped counter reset).
	AuditRecycle(frame int)
	// AuditReturn: a virtual-credit return tagged with departure slot `tag`
	// was applied.
	AuditReturn(tag uint64)
	// AuditReset: the table performed a local status reset (§4.3.2).
	AuditReset()
}

// SetAudit attaches an audit sink (nil detaches).
func (t *Table) SetAudit(a AuditSink) { t.aud = a }

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
