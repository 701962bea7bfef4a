package flit

import (
	"fmt"

	"loft/internal/topo"
)

// Wire encoding of look-ahead flits (§5.1.1): the paper packs destination
// (6 bits), flow number (6 bits), quantum number (10 bits) and departure time
// (10 bits) into a 32-bit payload carried on a 64-bit look-ahead link. This
// file is a stand-alone transcription of that layout, checked by its test:
// the router model passes Lookahead values over its links and never calls
// the codec. It pins how field-width truncation behaves in the hardware
// (times and quantum numbers wrap modulo 2^10 and are reconstructed against
// the current cycle at the receiver).
const (
	dstBits     = 6
	flowBits    = 6
	quantumBits = 10
	departBits  = 10

	dstShift     = 0
	flowShift    = dstShift + dstBits
	quantumShift = flowShift + flowBits
	departShift  = quantumShift + quantumBits

	quantumMask = (1 << quantumBits) - 1
	departMask  = (1 << departBits) - 1
)

// EncodeLookahead packs l into the 32-bit wire payload. It returns an error
// when a field does not fit its width (a configuration bug: e.g. more than 64
// nodes or flows with the paper's field widths).
func EncodeLookahead(l Lookahead) (uint32, error) {
	if l.Dst < 0 || int(l.Dst) >= 1<<dstBits {
		return 0, fmt.Errorf("flit: destination %d exceeds %d-bit field", l.Dst, dstBits)
	}
	if l.Flow < 0 || int(l.Flow) >= 1<<flowBits {
		return 0, fmt.Errorf("flit: flow %d exceeds %d-bit field", l.Flow, flowBits)
	}
	w := uint32(l.Dst)<<dstShift |
		uint32(l.Flow)<<flowShift |
		uint32(l.Quantum&quantumMask)<<quantumShift |
		uint32(l.DepartPrev&departMask)<<departShift
	return w, nil
}

// DecodeLookahead unpacks a wire payload. now anchors the 10-bit wrapped
// departure time and refQuantum anchors the 10-bit wrapped quantum number,
// reconstructing the nearest absolute values (the hardware keeps the same
// small counters and compares modulo the field width).
func DecodeLookahead(w uint32, now uint64, refQuantum uint64) Lookahead {
	return Lookahead{
		Dst:        topo.NodeID(w >> dstShift & ((1 << dstBits) - 1)),
		Flow:       FlowID(w >> flowShift & ((1 << flowBits) - 1)),
		Quantum:    unwrap(uint64(w>>quantumShift&quantumMask), refQuantum, quantumBits),
		DepartPrev: unwrap(uint64(w>>departShift&departMask), now, departBits),
	}
}

// unwrap reconstructs the absolute value whose low `bits` equal v and which
// is nearest to ref.
func unwrap(v, ref uint64, bits uint) uint64 {
	mod := uint64(1) << bits
	base := ref &^ (mod - 1)
	cand := base | v
	// Choose among cand-mod, cand, cand+mod the one closest to ref.
	best := cand
	bestD := absDiff(cand, ref)
	if cand >= mod {
		if d := absDiff(cand-mod, ref); d < bestD {
			best, bestD = cand-mod, d
		}
	}
	if d := absDiff(cand+mod, ref); d < bestD {
		best = cand + mod
	}
	return best
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}
