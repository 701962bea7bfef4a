package gsf

import (
	"testing"

	"loft/internal/probe"
	"loft/internal/traffic"
)

func TestGSFProbeFrameRollAndThrottle(t *testing.T) {
	cfg := smallGSF()
	// A saturated hotspot exhausts frame windows, forcing source throttling.
	p := hotspot(t, cfg, 0.9)
	pr := probe.New(probe.Config{SampleEvery: 64})
	net, err := New(cfg, p, Options{Seed: 1, Warmup: 0, BaseFrameFlits: 32, Probe: pr})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(5000)
	if pr.Tracer().Count(probe.KindGSFFrameRoll) == 0 {
		t.Error("no frame rollover events")
	}
	if pr.Tracer().Count(probe.KindGSFThrottle) == 0 {
		t.Error("no source-throttle events under saturation")
	}
	var throttled []probe.Sample
	for _, s := range pr.Series() {
		if s.Name == "gsf.throttle.cycles" {
			throttled = s.Samples
		}
	}
	if len(throttled) == 0 || throttled[len(throttled)-1].Value == 0 {
		t.Errorf("gsf.throttle.cycles series never grew: %v", throttled)
	}
}

func TestGSFHeatmapAndUtilization(t *testing.T) {
	cfg := smallGSF()
	p := traffic.Uniform(cfg.Mesh(), 0.2, cfg.PacketFlits, 32)
	net := mustNet(t, cfg, p, 2, 0)
	net.Run(4000)
	util := net.LinkUtilization()
	if len(util) == 0 {
		t.Fatal("no link utilization reported")
	}
	busy := 0.0
	for _, u := range util {
		if u < 0 || u > 1 {
			t.Fatalf("utilization out of range: %f", u)
		}
		busy += u
	}
	if busy == 0 {
		t.Fatal("all links idle under uniform traffic")
	}
	if hm := net.Heatmap(); len(hm) == 0 {
		t.Fatal("empty heatmap")
	}
}
