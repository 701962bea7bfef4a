package main

import (
	"bytes"
	"path/filepath"
	"testing"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/probe"
	"loft/internal/runio"
	"loft/internal/trace"
)

// export runs the session's export into run directory dir, with the
// manifest loftsim records.
func export(pr *probe.Probe, dir string) error {
	s := &runio.Session{Tool: "loftsim", Probe: pr, Out: dir}
	return s.Export(func() trace.Manifest {
		return newManifest(s, core.ArchLOFT, "test", config.PaperLOFT(),
			core.RunSpec{Seed: 1, Warmup: 10, Measure: 100}, []uint64{1}, map[string]float64{"packets": 1})
	})
}

// TestWriteRunDirectory pins the run-directory contract: -out (the
// directory need not exist yet) writes the three probe export formats plus
// a manifest whose artifact checksums match the files on disk.
func TestWriteRunDirectory(t *testing.T) {
	pr := probe.New(probe.Config{EventCap: 8, SampleEvery: 1})
	pr.Emit(1, probe.KindSpecHit, 0, 0, 0, 0)
	pr.MaybeSample(1)
	dir := filepath.Join(t.TempDir(), "run")
	if err := export(pr, dir); err != nil {
		t.Fatalf("export(dir): %v", err)
	}
	m, err := trace.ReadManifest(dir)
	if err != nil {
		t.Fatalf("manifest: %v", err)
	}
	if len(m.Artifacts) != 3 {
		t.Fatalf("got %d artifacts, want 3 (events/series/trace): %+v", len(m.Artifacts), m.Artifacts)
	}
	for _, a := range m.Artifacts {
		got, err := trace.FileArtifact(filepath.Join(dir, a.Name))
		if err != nil {
			t.Fatalf("artifact %s: %v", a.Name, err)
		}
		if got.SHA256 != a.SHA256 || got.Bytes != a.Bytes {
			t.Errorf("artifact %s checksum drifted: manifest %+v, disk %+v", a.Name, a, got)
		}
	}
	ev, _, err := trace.ReadEventsFile(filepath.Join(dir, trace.EventsFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != probe.KindSpecHit {
		t.Errorf("round-tripped events = %+v", ev)
	}
}

// TestReportLatency pins the latency lines of a run that delivered packets
// and of runs that delivered none created after warm-up, such as
// loftsim -pattern hotspot -rate 0.5 -warmup 2000 -cycles 6000: those print
// n/a with the reason, never an average of 0.0 cycles.
func TestReportLatency(t *testing.T) {
	delivered := core.Result{Packets: 7, AvgLatency: 31.25, AvgNetLatency: 20.5, P99Latency: 64, MaxLatency: 70, TotalRate: 6.4}
	none := core.Result{TotalRate: 3.2}
	const na = "n/a (no packet created after the 2000-cycle warm-up was delivered)"
	for _, c := range []struct {
		name    string
		results []core.Result
		want    string
	}{
		{"delivered", []core.Result{delivered}, "" +
			"  packets delivered : 7\n" +
			"  avg latency       : 31.2 cycles (network 20.5)\n" +
			"  p99 / max latency : 64 / 70 cycles\n"},
		{"none", []core.Result{none}, "" +
			"  packets delivered : 0\n" +
			"  avg latency       : " + na + "\n" +
			"  p99 / max latency : " + na + "\n"},
		{"seeds-delivered", []core.Result{delivered, delivered}, "" +
			"  seed 1   : avg latency     31.2 cycles, accepted 0.1000 flits/cycle/node\n" +
			"  seed 2   : avg latency     31.2 cycles, accepted 0.1000 flits/cycle/node\n" +
			"  aggregate : latency 31.2 ±0.0%, accepted 0.1000 ±0.0% (n=2)\n"},
		{"seeds-none", []core.Result{none, none}, "" +
			"  seed 1   : avg latency " + na + ", accepted 0.0500 flits/cycle/node\n" +
			"  seed 2   : avg latency " + na + ", accepted 0.0500 flits/cycle/node\n" +
			"  aggregate : latency " + na + ", accepted 0.0500 ±0.0% (n=2)\n"},
		{"seeds-some", []core.Result{delivered, none}, "" +
			"  seed 1   : avg latency     31.2 cycles, accepted 0.1000 flits/cycle/node\n" +
			"  seed 2   : avg latency " + na + ", accepted 0.0500 flits/cycle/node\n" +
			"  aggregate : latency 31.2 ±0.0% over the 1 seeds that delivered, accepted 0.0750 ±33.3% (n=2)\n"},
	} {
		var b bytes.Buffer
		if len(c.results) == 1 {
			reportLatency(&b, c.results[0], 2000)
		} else {
			reportSeeds(&b, c.results, []uint64{1, 2}, 2000, 64)
		}
		if b.String() != c.want {
			t.Errorf("%s: printed\n%s\nwant\n%s", c.name, b.String(), c.want)
		}
	}
}
