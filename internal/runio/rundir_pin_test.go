package runio

import (
	"path/filepath"
	"reflect"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/det"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/trace"
)

// TestRunDirectoryPinned pins the bytes of a run directory: one small
// audited, probed and profiled LOFT run goes through WriteRunDir, and the
// SHA-256 of every deterministic artifact must match the digests below,
// byte for byte. The perf files carry wall times, so only the manifest's
// metric names are pinned beside them. A change to any exporter's layout
// (field order, column order, number formatting) turns this red; a change
// that means to alter the bytes updates the digests and says why.
func TestRunDirectoryPinned(t *testing.T) {
	cfg := config.PaperLOFT()
	pr := probe.New(probe.Config{EventCap: 1 << 16, SampleEvery: 64})
	aud := audit.New(audit.Config{})
	mon := perfmon.New(perfmon.Config{SampleEvery: 8})
	res, _, err := core.RunLOFT(cfg, testPattern(cfg), core.RunSpec{Seed: 5, Warmup: 100, Measure: 600,
		Probe: pr, Audit: aud, Perf: mon})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	m := trace.Manifest{ManifestVersion: trace.ManifestVersion, Tool: "pin",
		Metrics: Metrics(&res, pr, aud, mon, uint64(cfg.QuantumFlits))}
	if err := WriteRunDir(dir, pr, aud, mon, m); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"events.jsonl": "dd926cbd8874285d70ad527744005cb5d0b07981d6bcf365d32f45b5d8ef0c53",
		"series.csv":   "1c19d73ec8180197c044aecd6544c1ae7ad75e00ae494987599ea06ea4aebb3e",
		"trace.json":   "412dd7703754b6f3698fefac9e4138a2476ef2ed4f0ca6af480b62cc82f80a8f",
		"audit.json":   "a69b889e05474f5954988cf69aecfd91562e4561749c5f1305b7e4a00a8c1cdd",
	}
	for _, name := range det.Keys(want) {
		a, err := trace.FileArtifact(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if a.SHA256 != want[name] {
			t.Errorf("%s: sha256 %s (%d bytes), want %s", name, a.SHA256, a.Bytes, want[name])
		}
	}
	got, err := trace.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{
		"audit_violations", "avg_latency_cycles", "avg_net_latency_cycles",
		"decomp_incomplete", "decomp_max_total_cycles", "decomp_mean_booking_wait_cycles",
		"decomp_mean_hops", "decomp_mean_lookahead_wait_cycles", "decomp_mean_serialization_cycles",
		"decomp_mean_spec_saved_cycles", "decomp_mean_spec_wait_cycles", "decomp_mean_total_cycles",
		"decomp_quanta", "decomp_spec_hop_pct", "delay_bound_margin_pct", "drops",
		"frame_skip_rate", "max_latency_cycles", "p50_latency_cycles", "p99_latency_cycles",
		"packets", "perf sampled cycles", "perf stage ns/cycle",
		"perf stage share % booking", "perf stage share % commit", "perf stage share % drain",
		"perf stage share % flush", "perf stage share % frame", "perf stage share % lookahead",
		"perf stage share % switch", "reserve_deny_rate", "resets", "spec_abort_rate",
		"spec_forwards", "throughput_flits_per_cycle",
	}
	if keys := det.Keys(got.Metrics); !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("manifest metric names:\n got %q\nwant %q", keys, wantKeys)
	}
}
