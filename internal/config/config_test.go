package config

import "testing"

func TestPaperLOFTMatchesTable1(t *testing.T) {
	c := PaperLOFT()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	checks := []struct {
		name      string
		got, want int
	}{
		{"mesh", c.MeshK, 8},
		{"packet flits", c.PacketFlits, 4},
		{"max flows", c.MaxFlows, 64},
		{"frame size", c.FrameFlits, 256},
		{"frame window", c.FrameWindow, 2},
		{"central buffer", c.CentralBufFlits, 256},
		{"spec buffer", c.SpecBufFlits, 12},
		{"LA VCs", c.LAVirtualChannels, 3},
		{"LA VC depth", c.LAVCDepth, 4},
		{"LA flit bits", c.LAFlitBits, 64},
		{"data flit bits", c.DataFlitBits, 128},
		// Derived: Table 1's reservation table size and per-frame slots.
		{"table slots", c.TableSlots(), 256},
		{"slots per frame", c.SlotsPerFrame(), 128},
		{"buffer quanta", c.BufferQuanta(), 128},
	}
	for _, ch := range checks {
		if ch.got != ch.want {
			t.Errorf("%s = %d, want %d", ch.name, ch.got, ch.want)
		}
	}
}

func TestSpecZeroDisablesOptimizations(t *testing.T) {
	c := PaperLOFTSpec(0)
	if c.SpeculativeSwitching() || c.LocalStatusReset() {
		t.Fatal("spec=0 must disable §4.3 optimizations")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c16 := PaperLOFTSpec(16)
	if !c16.SpeculativeSwitching() || !c16.LocalStatusReset() {
		t.Fatal("spec=16 must enable §4.3 optimizations")
	}
}

func TestPaperGSFMatchesTable1(t *testing.T) {
	c := PaperGSF()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.VirtualChannels != 6 || c.VCDepth != 5 || c.FrameFlits != 2000 ||
		c.FrameWindow != 6 || c.BarrierDelay != 16 || c.SourceQueue != 2000 {
		t.Fatalf("GSF config mismatch: %+v", c)
	}
}

func TestLOFTValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*LOFT){
		func(c *LOFT) { c.MeshK = 1 },
		func(c *LOFT) { c.FrameFlits = 255 }, // not a quantum multiple
		func(c *LOFT) { c.FrameFlits = 0 },   // no slot per frame
		func(c *LOFT) { c.FrameFlits = -256 },
		func(c *LOFT) { c.FrameFlits = 1 },  // below one quantum
		func(c *LOFT) { c.PacketFlits = 3 }, // not a quantum multiple
		func(c *LOFT) { c.FrameWindow = 1 },
		func(c *LOFT) { c.CentralBufFlits = 128 }, // < frame: breaks Theorem I
		func(c *LOFT) { c.SpecBufFlits = -1 },
		func(c *LOFT) { c.CentralBufFlits = 257 }, // not a quantum multiple
		func(c *LOFT) { c.SpecBufFlits = 3 },      // not a quantum multiple
		func(c *LOFT) { c.SpecBufFlits = 1 },      // floors to a zero-quantum buffer
		func(c *LOFT) { c.LAVCDepth = 0 },
		func(c *LOFT) { c.LAStages = 0 },      // readyAt = now-1 underflows at cycle 0
		func(c *LOFT) { c.LAStages = -2 },     // early flits never become ready
		func(c *LOFT) { c.NIQueueFlits = 1 },  // below one packet
		func(c *LOFT) { c.NIQueueFlits = 0 },  // no packet ever fits
		func(c *LOFT) { c.NIQueueFlits = -4 }, // no packet ever fits
		func(c *LOFT) { c.NIQueueFlits = 5 },  // not a quantum multiple
	}
	for i, mutate := range cases {
		c := PaperLOFT()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGSFValidateRejectsBadConfigs(t *testing.T) {
	cases := []func(*GSF){
		func(c *GSF) { c.MeshK = 0 },
		func(c *GSF) { c.VirtualChannels = 0 },
		func(c *GSF) { c.FrameWindow = 1 },
		func(c *GSF) { c.SourceQueue = 2 },
		func(c *GSF) { c.BarrierDelay = 0 }, // the barrier never arms: the head frame never advances
		func(c *GSF) { c.PipeStages = 0 },   // readyAt = now-1 underflows at cycle 0
	}
	for i, mutate := range cases {
		c := PaperGSF()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
