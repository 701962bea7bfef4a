package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/probe"
	"loft/internal/runio"
	"loft/internal/trace"
	"loft/internal/traffic"
)

// writeProbedRun runs one probed LOFT simulation per seed, all sharing one
// probe as loftsim -seeds N -probe does, and writes the run directory
// lofttrace decompose reads. eventCap bounds the shared event ring.
func writeProbedRun(t *testing.T, rate float64, warmup, measure uint64, eventCap int, seeds ...uint64) string {
	t.Helper()
	cfg := config.PaperLOFT()
	p := traffic.Uniform(cfg.Mesh(), rate, cfg.PacketFlits, cfg.FrameFlits)
	pr := probe.New(probe.Config{EventCap: eventCap})
	for _, seed := range seeds {
		if _, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: seed, Warmup: warmup, Measure: measure, Probe: pr}); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	m := trace.Manifest{ManifestVersion: trace.ManifestVersion, Tool: "loftsim", Arch: "loft",
		Pattern: "uniform", Seeds: seeds, Config: &cfg}
	if err := runio.WriteRunDir(dir, pr, nil, nil, m); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDecomposeOutputPinned pins the bytes of lofttrace decompose, text and
// -json, on three probed LOFT streams: a whole single run, a single run
// whose event ring dropped its head, and two seeds' runs concatenated in one
// stream. The digests hold for any correct implementation of the
// decomposition; a change to what counts as a complete quantum, to the
// components or to either rendering turns them red.
func TestDecomposeOutputPinned(t *testing.T) {
	streams := map[string]string{
		"single":  writeTestRun(t, 12),
		"clipped": writeProbedRun(t, 0.3, 100, 800, 20000, 11),
		"2seeds":  writeProbedRun(t, 0.1, 200, 1300, 1<<20, 1, 2),
	}
	ev, dropped, err := trace.ReadEventsFile(filepath.Join(streams["clipped"], trace.EventsFile))
	if err != nil || dropped == 0 || len(ev) == 0 {
		t.Fatalf("clipped stream: %d events, %d dropped, err %v; want a ring that dropped events", len(ev), dropped, err)
	}
	cases := []struct {
		stream string
		args   []string
		want   string
	}{
		{"single", nil, "384a99457b2f8c7526bed14f4415aaeba0d3a05a789cd176bb283f0bca69a215"},
		{"single", []string{"-json"}, "6b1fbc4207e5d21d9b583ab350a0a8c64eb80c112d8ebf46e1d00f78a10434d5"},
		{"single", []string{"-flow", "5"}, "9126ec3597ff9897994989a53cddc3251f60448db4bed6c7fff736e80867b7b2"},
		{"single", []string{"-flow", "5", "-json"}, "6e643db0f757a76b74a172d894de6ba70830fb1936fc7b2269183caae612135a"},
		{"clipped", nil, "ca73acbe38ea5027d3344ff0078e399410acfea52cff91332ebaab2bc38b0216"},
		{"clipped", []string{"-json"}, "b5a6c0ab60c9e04396a376386891e33748d6a9eb52927b3550b33e1e221df2df"},
		{"2seeds", nil, "e72af7d12dc6236a0beaeb543c7c06c9e4f4c83acb283b9e2878a84d9103e5c7"},
		{"2seeds", []string{"-json"}, "5218ee6e68d1670aeb2588aff91c0f107a460acd254d4b5e00d38cda595ac094"},
	}
	for _, c := range cases {
		args := append(append([]string{"decompose"}, c.args...), streams[c.stream])
		code, out, errOut := runCLI(t, args...)
		if code != 0 {
			t.Fatalf("%s %q: code=%d stderr=%s", c.stream, c.args, code, errOut)
		}
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s %q: output digest %s, want %s", c.stream, c.args, got, c.want)
			if os.Getenv("PIN_DUMP") != "" {
				t.Logf("output:\n%s", out)
			}
		}
	}
}
