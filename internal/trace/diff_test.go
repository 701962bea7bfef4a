package trace

import (
	"strings"
	"testing"

	"loft/internal/config"
)

func TestMetricDirection(t *testing.T) {
	cases := map[string]Direction{
		"avg_latency_cycles":            LowerIsBetter,
		"decomp_mean_spec_wait_cycles":  LowerIsBetter,
		"reserve_deny_rate":             LowerIsBetter,
		"delay_bound_margin_pct":        LowerIsBetter,
		"decomp_incomplete":             LowerIsBetter,
		"flits_lost":                    LowerIsBetter,
		"decomp_mean_total_cycles":      LowerIsBetter,
		"decomp_max_total_cycles":       LowerIsBetter,
		"throughput_flits_per_cycle":    HigherIsBetter,
		"packets":                       HigherIsBetter,
		"decomp_mean_spec_saved_cycles": HigherIsBetter,
		"decomp_mean_hops":              Neutral,
	}
	for name, want := range cases {
		if got := MetricDirection(name); got != want {
			t.Errorf("MetricDirection(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestDiffMetricsSelf pins the zero-delta acceptance criterion: a metric set
// diffed against itself changes nothing and breaches nothing.
func TestDiffMetricsSelf(t *testing.T) {
	m := map[string]float64{"avg_latency_cycles": 42.5, "throughput_flits_per_cycle": 3.1, "packets": 900}
	for _, d := range DiffMetrics(m, m, 2) {
		if d.Changed() || d.Breach {
			t.Errorf("self-diff delta %+v changed or breached", d)
		}
	}
}

func TestDiffMetricsDirectionAwareBreach(t *testing.T) {
	base := map[string]float64{
		"avg_latency_cycles":         100,
		"throughput_flits_per_cycle": 4.0,
		"decomp_mean_hops":           5.0,
	}
	cur := map[string]float64{
		"avg_latency_cycles":         110, // +10% latency: breach
		"throughput_flits_per_cycle": 4.1, // throughput up: improvement, never a breach
		"decomp_mean_hops":           9.0, // neutral metric: reported, never a breach
		"new_metric":                 1.0, // one-sided: reported, never a breach
	}
	byName := make(map[string]Delta)
	for _, d := range DiffMetrics(base, cur, 2) {
		byName[d.Name] = d
	}
	if d := byName["avg_latency_cycles"]; !d.Breach || d.RelPct != 10 {
		t.Errorf("latency delta = %+v, want 10%% breach", d)
	}
	if d := byName["throughput_flits_per_cycle"]; d.Breach {
		t.Errorf("throughput improvement flagged as breach: %+v", d)
	}
	if d := byName["decomp_mean_hops"]; d.Breach || !d.Changed() {
		t.Errorf("neutral metric: %+v, want changed but no breach", d)
	}
	if d := byName["new_metric"]; d.OnlyIn != "new" || d.Breach {
		t.Errorf("one-sided metric: %+v, want only_in=new without breach", d)
	}
	// Same movement inside the threshold must not breach.
	if d := DiffMetrics(map[string]float64{"avg_latency_cycles": 100},
		map[string]float64{"avg_latency_cycles": 101}, 2); d[0].Breach {
		t.Errorf("1%% latency rise breached a 2%% threshold: %+v", d[0])
	}
	// Bad direction for higher-is-better: throughput drop breaches.
	if d := DiffMetrics(map[string]float64{"throughput_flits_per_cycle": 4},
		map[string]float64{"throughput_flits_per_cycle": 3}, 2); !d[0].Breach {
		t.Errorf("25%% throughput drop did not breach: %+v", d[0])
	}
}

func TestDiffManifestsConfigChanges(t *testing.T) {
	on := config.PaperLOFTSpec(12)
	off := config.PaperLOFTSpec(0)
	a := &Manifest{ManifestVersion: ManifestVersion, Tool: "loftsim", Arch: "loft",
		Pattern: "case1", Seeds: []uint64{1}, Config: &on,
		Metrics: map[string]float64{"packets": 100}}
	b := &Manifest{ManifestVersion: ManifestVersion, Tool: "loftsim", Arch: "loft",
		Pattern: "case1", Seeds: []uint64{1}, Config: &off,
		Metrics: map[string]float64{"packets": 100}}
	r, err := DiffManifests(a, b, "on", "off", 2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Breaches != 0 || r.Changed != 0 {
		t.Errorf("identical metrics: changed=%d breaches=%d", r.Changed, r.Breaches)
	}
	joined := strings.Join(r.ConfigChanges, "\n")
	if !strings.Contains(joined, "SpecBufFlits: 12 -> 0") {
		t.Errorf("config changes missing SpecBufFlits:\n%s", joined)
	}
	// Self-diff of a manifest reports no config changes at all.
	r2, err := DiffManifests(a, a, "on", "on", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r2.ConfigChanges) != 0 {
		t.Errorf("self-diff config changes = %v", r2.ConfigChanges)
	}
}
