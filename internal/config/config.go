// Package config holds the simulation parameters of the paper's Table 1 and
// their validation. All sizes are in flits unless noted otherwise.
package config

import (
	"fmt"

	"loft/internal/topo"
)

// LOFT is the parameter set of the LOFT network (Table 1).
type LOFT struct {
	MeshK       int // nodes per dimension (8 → 64-node mesh)
	PacketFlits int // data flits per packet (4)
	MaxFlows    int // maximum flows contending for a link (64)

	// LSF / FRS parameters.
	FrameFlits   int // F, frame size in flits (256)
	FrameWindow  int // WF, number of frames (2)
	QuantumFlits int // data flits led by one look-ahead flit (2)

	// Data network.
	CentralBufFlits int // non-speculative central buffer per input port (256)
	SpecBufFlits    int // speculative buffer per input port (0..16)
	DataFlitBits    int // data flit and link width (128)

	// Look-ahead network.
	LAVirtualChannels int // 3
	LAVCDepth         int // flits per VC (4)
	LAStages          int // router pipeline stages (3)
	LAFlitBits        int // look-ahead flit width (64)

	// NIQueueFlits bounds the per-node source backlog. LOFT needs no large
	// source queues (Table 2 has none); packets arriving to a full queue
	// are dropped, which bounds saturation latency exactly as GSF's finite
	// source queue does. It holds at least one packet, in whole quanta.
	NIQueueFlits int

	// YieldCondition enables the buffer-yield admission policy derived
	// from the paper's condition (1). Off by default (see internal/lsf and
	// DESIGN.md); the yield study of exp.Ablations flips it.
	YieldCondition bool
}

// PaperLOFT returns the Table 1 LOFT configuration with the paper's chosen
// 12-flit speculative buffer.
func PaperLOFT() LOFT { return PaperLOFTSpec(12) }

// PaperLOFTSpec returns the Table 1 LOFT configuration with a specific
// speculative buffer size. spec == 0 disables both §4.3 optimizations,
// matching the paper's definition of the unoptimized baseline.
func PaperLOFTSpec(spec int) LOFT {
	return LOFT{
		MeshK:             8,
		PacketFlits:       4,
		MaxFlows:          64,
		FrameFlits:        256,
		FrameWindow:       2,
		QuantumFlits:      2,
		CentralBufFlits:   256,
		SpecBufFlits:      spec,
		DataFlitBits:      128,
		LAVirtualChannels: 3,
		LAVCDepth:         4,
		LAStages:          3,
		LAFlitBits:        64,
		NIQueueFlits:      256,
	}
}

// SpeculativeSwitching reports whether the speculative flit switching of
// §4.3.1 is on. The paper treats a zero speculative buffer as "all
// optimizations off", so both §4.3 optimizations follow SpecBufFlits.
func (c LOFT) SpeculativeSwitching() bool { return c.SpecBufFlits > 0 }

// LocalStatusReset reports whether the local status reset of §4.3.2 is on.
func (c LOFT) LocalStatusReset() bool { return c.SpecBufFlits > 0 }

// SlotsPerFrame returns F in quantum slots (the reservation-table frame
// span; 128 with the paper parameters — Table 1's "time window size").
func (c LOFT) SlotsPerFrame() int { return c.FrameFlits / c.QuantumFlits }

// TableSlots returns the total reservation-table entries
// (F·WF/Q = 256 with the paper parameters).
func (c LOFT) TableSlots() int { return c.SlotsPerFrame() * c.FrameWindow }

// BufferQuanta returns the non-speculative buffer capacity in quanta.
func (c LOFT) BufferQuanta() int { return c.CentralBufFlits / c.QuantumFlits }

// SpecQuanta returns the speculative buffer capacity in quanta.
func (c LOFT) SpecQuanta() int { return c.SpecBufFlits / c.QuantumFlits }

// Mesh returns the topology.
func (c LOFT) Mesh() topo.Mesh { return topo.NewMesh(c.MeshK) }

// Validate reports configuration errors.
func (c LOFT) Validate() error {
	switch {
	case c.MeshK < 2:
		return fmt.Errorf("config: mesh dimension %d < 2", c.MeshK)
	case c.QuantumFlits < 1:
		return fmt.Errorf("config: quantum size %d < 1", c.QuantumFlits)
	case c.FrameFlits < c.QuantumFlits:
		// A frame of no whole quantum slot leaves no table to build.
		return fmt.Errorf("config: frame size %d smaller than one quantum (%d flits)", c.FrameFlits, c.QuantumFlits)
	case c.FrameFlits%c.QuantumFlits != 0:
		return fmt.Errorf("config: frame size %d not a quantum multiple", c.FrameFlits)
	case c.PacketFlits%c.QuantumFlits != 0:
		return fmt.Errorf("config: packet size %d not a quantum multiple", c.PacketFlits)
	case c.FrameWindow < 2:
		return fmt.Errorf("config: frame window %d < 2", c.FrameWindow)
	case c.CentralBufFlits < c.FrameFlits:
		// §4.2/Theorem I: the anomaly fix requires input buffer ≥ F flits.
		return fmt.Errorf("config: central buffer %d smaller than frame size %d breaks Theorem I", c.CentralBufFlits, c.FrameFlits)
	case c.CentralBufFlits%c.QuantumFlits != 0:
		return fmt.Errorf("config: central buffer %d not a quantum multiple", c.CentralBufFlits)
	case c.SpecBufFlits < 0:
		return fmt.Errorf("config: negative speculative buffer")
	case c.SpecBufFlits%c.QuantumFlits != 0:
		return fmt.Errorf("config: speculative buffer %d not a quantum multiple", c.SpecBufFlits)
	case c.NIQueueFlits < c.PacketFlits:
		return fmt.Errorf("config: NI queue %d smaller than one packet (%d flits)", c.NIQueueFlits, c.PacketFlits)
	case c.NIQueueFlits%c.QuantumFlits != 0:
		return fmt.Errorf("config: NI queue %d not a quantum multiple", c.NIQueueFlits)
	case c.LAVirtualChannels < 1 || c.LAVCDepth < 1:
		return fmt.Errorf("config: look-ahead network needs at least one VC slot")
	case c.LAStages < 1:
		return fmt.Errorf("config: look-ahead router pipeline stages %d < 1", c.LAStages)
	}
	return nil
}

// GSF is the parameter set of the GSF baseline (Table 1).
type GSF struct {
	MeshK       int
	PacketFlits int

	VirtualChannels int // 6
	VCDepth         int // 5 flits
	FrameFlits      int // 2000
	FrameWindow     int // 6
	BarrierDelay    int // 16 cycles
	SourceQueue     int // 2000 flits
	DataFlitBits    int // 128
	PipeStages      int // router pipeline stages (3, as the LOFT router)

	// BestEffort disables the QoS machinery (frame tags, injection
	// budgets, barrier), turning the network into a plain virtual-channel
	// wormhole NoC. Used as the unregulated reference point in the
	// cost-of-QoS ablation.
	BestEffort bool
}

// PaperGSF returns the Table 1 GSF configuration.
func PaperGSF() GSF {
	return GSF{
		MeshK:           8,
		PacketFlits:     4,
		VirtualChannels: 6,
		VCDepth:         5,
		FrameFlits:      2000,
		FrameWindow:     6,
		BarrierDelay:    16,
		SourceQueue:     2000,
		DataFlitBits:    128,
		PipeStages:      3,
	}
}

// Mesh returns the topology.
func (c GSF) Mesh() topo.Mesh { return topo.NewMesh(c.MeshK) }

// Validate reports configuration errors.
func (c GSF) Validate() error {
	switch {
	case c.MeshK < 2:
		return fmt.Errorf("config: mesh dimension %d < 2", c.MeshK)
	case c.VirtualChannels < 1 || c.VCDepth < 1:
		return fmt.Errorf("config: GSF needs at least one VC slot")
	case c.FrameWindow < 2:
		return fmt.Errorf("config: GSF frame window %d < 2", c.FrameWindow)
	case c.SourceQueue < c.PacketFlits:
		return fmt.Errorf("config: GSF source queue smaller than one packet")
	case c.BarrierDelay < 1:
		// A zero countdown never arms the barrier: the head frame never
		// advances.
		return fmt.Errorf("config: GSF barrier delay %d < 1", c.BarrierDelay)
	case c.PipeStages < 1:
		return fmt.Errorf("config: GSF router pipeline stages %d < 1", c.PipeStages)
	}
	return nil
}

// PaperWormhole returns a plain best-effort VC wormhole configuration: the
// GSF router datapath with all QoS machinery disabled. It serves as the
// unregulated reference point for the cost-of-QoS ablation.
func PaperWormhole() GSF {
	c := PaperGSF()
	c.BestEffort = true
	return c
}
