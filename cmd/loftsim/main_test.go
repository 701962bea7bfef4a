package main

import (
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
