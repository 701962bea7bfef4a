package core

import (
	"reflect"
	"strings"
	"testing"

	"loft/internal/config"
	"loft/internal/probe"
	"loft/internal/traffic"
)

// TestSharedProbeSeriesPerRun runs two LOFT runs and then a GSF run through
// one probe, the way a sweep or loftsim -seeds shares it. Every series name
// holds exactly one block per run that registered it, sized to that run's
// own sample points: a finished network's gauges are not polled by the runs
// after it. Once the last network is closed, a further sample point polls
// nothing and leaves every series as it was.
func TestSharedProbeSeriesPerRun(t *testing.T) {
	const every, cycles = 100, 450
	pr := probe.New(probe.Config{SampleEvery: every})
	lcfg := config.PaperLOFT()
	p := traffic.Uniform(lcfg.Mesh(), 0.1, lcfg.PacketFlits, lcfg.FrameFlits)
	for i, arch := range []Arch{ArchLOFT, ArchLOFT, ArchGSF} {
		if _, err := Run(arch, lcfg, p, RunSpec{Seed: uint64(i + 1), Measure: cycles, Probe: pr}); err != nil {
			t.Fatal(err)
		}
	}
	// Every run samples cycles 0, 100, ..., 400; a rate gauge drops the
	// first reading as its baseline.
	var points []uint64
	for c := uint64(0); c < cycles; c += every {
		points = append(points, c)
	}
	series := pr.Series()
	blocks := map[string]int{}
	for _, s := range series {
		blocks[s.Name]++
		want := points
		if strings.Contains(s.Name, ".link.") {
			want = points[1:]
		}
		var got []uint64
		for _, pt := range s.Samples {
			got = append(got, pt.Cycle)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a block sampled cycles %v, want %v", s.Name, got, want)
		}
	}
	if len(blocks) == 0 {
		t.Fatal("no series recorded")
	}
	for name, n := range blocks {
		want := 2
		if strings.HasPrefix(name, "gsf.") {
			want = 1
		}
		if n != want {
			t.Errorf("%s: %d blocks, want %d (one per run that registered it)", name, n, want)
		}
	}
	pr.MaybeSample(0)
	if !reflect.DeepEqual(pr.Series(), series) {
		t.Error("a sample point after every network was closed changed the series")
	}
}
