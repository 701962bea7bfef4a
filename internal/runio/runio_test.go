package runio

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"loft/internal/audit"
	"loft/internal/config"
	"loft/internal/core"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/trace"
	"loft/internal/traffic"
)

func testPattern(cfg config.LOFT) *traffic.Pattern {
	return traffic.Uniform(cfg.Mesh(), 0.2, cfg.PacketFlits, cfg.FrameFlits)
}

// TestMetricsFromLiveRun pins the metric names the manifests record — the
// differ's direction table (trace.MetricDirection) keys off these names.
func TestMetricsFromLiveRun(t *testing.T) {
	cfg := config.PaperLOFT()
	p := testPattern(cfg)
	pr := probe.New(probe.Config{EventCap: 1 << 20})
	res, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: 7, Warmup: 100, Measure: 1500, Probe: pr})
	if err != nil {
		t.Fatal(err)
	}
	m := Metrics(&res, pr, nil, nil, uint64(cfg.QuantumFlits))
	for _, name := range []string{
		"throughput_flits_per_cycle", "packets",
		"avg_latency_cycles", "p50_latency_cycles", "p99_latency_cycles",
		"decomp_quanta", "decomp_mean_total_cycles",
	} {
		if _, ok := m[name]; !ok {
			t.Errorf("metric %q missing from %v", name, m)
		}
	}
	if m["packets"] <= 0 || m["decomp_quanta"] <= 0 {
		t.Errorf("degenerate run: %v", m)
	}
	// Headline metrics must have a quality direction, or the differ would
	// never flag their regressions.
	for _, name := range []string{"throughput_flits_per_cycle", "avg_latency_cycles", "p99_latency_cycles"} {
		if trace.MetricDirection(name) == trace.Neutral {
			t.Errorf("headline metric %q has no quality direction", name)
		}
	}
	// All four sources nil: empty but non-nil map, no panic.
	if got := Metrics(nil, nil, nil, nil, 0); len(got) != 0 {
		t.Errorf("nil sources produced metrics: %v", got)
	}
}

// TestMetricsLatencyNeedsPackets checks that a run with no measured packet
// records no latency: the five latency metrics are left out, not written as
// 0, so a diff against a run that measured packets reports them as present
// on one side only instead of comparing zeros as latencies.
func TestMetricsLatencyNeedsPackets(t *testing.T) {
	latency := []string{"avg_latency_cycles", "avg_net_latency_cycles", "p50_latency_cycles", "p99_latency_cycles", "max_latency_cycles"}
	measured := core.Result{Packets: 3, AvgLatency: 40, AvgNetLatency: 25, P50Latency: 38, P99Latency: 61, MaxLatency: 61, TotalRate: 0.1}
	for _, c := range []struct {
		name    string
		res     core.Result
		present bool
	}{
		{"no packets", core.Result{TotalRate: 0.1}, false},
		{"no packets, saturated", core.Result{TotalRate: 0.999, Drops: 12}, false},
		{"one packet", core.Result{Packets: 1, AvgLatency: 7, MaxLatency: 7}, true},
		{"packets", measured, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := Metrics(&c.res, nil, nil, nil, 0)
			if m["packets"] != float64(c.res.Packets) {
				t.Errorf("packets = %v, want %d", m["packets"], c.res.Packets)
			}
			for _, name := range latency {
				if _, ok := m[name]; ok != c.present {
					t.Errorf("%s recorded: %v, want %v", name, ok, c.present)
				}
			}
			onlyIn := map[string]string{}
			for _, d := range trace.DiffMetrics(Metrics(&measured, nil, nil, nil, 0), m, 5) {
				if d.OnlyIn != "" {
					onlyIn[d.Name] = d.OnlyIn
				}
			}
			for _, name := range latency {
				if want := map[bool]string{false: "base", true: ""}[c.present]; onlyIn[name] != want {
					t.Errorf("diff against a measured run: %s only in %q, want %q", name, onlyIn[name], want)
				}
			}
		})
	}
}

// TestWriteRunDirWithPerf pins the perf artifact path: a profiled run's
// directory gains perf.json (readable back through perfmon.ReadSnapshot)
// and perf.folded, both checksummed into the manifest, and the manifest
// metrics carry the perf summary values.
func TestWriteRunDirWithPerf(t *testing.T) {
	cfg := config.PaperLOFT()
	p := testPattern(cfg)
	mon := perfmon.New(perfmon.Config{SampleEvery: 8})
	res, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: 7, Warmup: 100, Measure: 1000, Perf: mon})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	m := trace.Manifest{ManifestVersion: trace.ManifestVersion, Tool: "test",
		Metrics: Metrics(&res, nil, nil, mon, uint64(cfg.QuantumFlits))}
	if err := WriteRunDir(dir, nil, nil, mon, m); err != nil {
		t.Fatal(err)
	}
	snap, err := perfmon.ReadSnapshot(filepath.Join(dir, trace.PerfFile))
	if err != nil {
		t.Fatal(err)
	}
	if snap.SampledCycles == 0 || len(snap.Stages) == 0 {
		t.Fatalf("round-tripped snapshot is empty: %+v", snap)
	}
	got, err := trace.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, a := range got.Artifacts {
		if a.SHA256 == "" || a.Bytes == 0 {
			t.Errorf("artifact %s not checksummed: %+v", a.Name, a)
		}
		names[a.Name] = true
	}
	if !names[trace.PerfFile] || !names[trace.FoldedFile] {
		t.Fatalf("artifacts = %+v, want %s and %s", got.Artifacts, trace.PerfFile, trace.FoldedFile)
	}
	if got.Metrics["perf sampled cycles"] == 0 {
		t.Errorf("manifest metrics missing perf summary: %v", got.Metrics)
	}
	folded, err := os.ReadFile(filepath.Join(dir, trace.FoldedFile))
	if err != nil {
		t.Fatal(err)
	}
	if len(folded) == 0 {
		t.Error("perf.folded is empty")
	}
}

func TestWriteRunDirAuditOnly(t *testing.T) {
	cfg := config.PaperLOFT()
	p := testPattern(cfg)
	aud := audit.New(audit.Config{})
	if _, _, err := core.RunLOFT(cfg, p, core.RunSpec{Seed: 7, Warmup: 100, Measure: 1000, Audit: aud}); err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "run")
	if err := WriteRunDir(dir, nil, aud, nil, trace.Manifest{ManifestVersion: trace.ManifestVersion, Tool: "test"}); err != nil {
		t.Fatal(err)
	}
	m, err := trace.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Artifacts) != 1 || m.Artifacts[0].Name != trace.AuditFile {
		t.Fatalf("artifacts = %+v, want just %s", m.Artifacts, trace.AuditFile)
	}
	blob, err := os.ReadFile(filepath.Join(dir, trace.AuditFile))
	if err != nil {
		t.Fatal(err)
	}
	var s audit.Snapshot
	if err := json.Unmarshal(blob, &s); err != nil {
		t.Fatal(err)
	}
	if s.Arch == "" || s.PacketsChecked == 0 {
		t.Errorf("snapshot = %+v", s)
	}
}
