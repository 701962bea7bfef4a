package trace

import (
	"encoding/json"
	"fmt"
	"strings"

	"loft/internal/det"
)

// Direction classifies how a metric's value maps to quality, so the differ
// only calls a change a regression when it moved the wrong way.
type Direction int

// Metric quality directions.
const (
	Neutral Direction = iota
	HigherIsBetter
	LowerIsBetter
)

// String returns the direction's wire name.
func (d Direction) String() string {
	switch d {
	case HigherIsBetter:
		return "higher-is-better"
	case LowerIsBetter:
		return "lower-is-better"
	}
	return "neutral"
}

// lowerBetter/higherBetter classify metric names by substring; the first
// matching list wins, so "deny" beats the "rate" in "reserve_deny_rate".
var lowerBetter = []string{
	"latency", "wait", "deny", "skip", "abort", "drop", "margin", "lost",
	"reset", "violation", "incomplete", "total_cycles", "ns/op", "ns/cycle", "imbalance",
}

var higherBetter = []string{
	"throughput", "packets", "saved", "cycles/sec", "flits", "util",
}

// MetricDirection classifies a metric name. Latencies, waits, deny/skip/
// abort/drop counts, lost flits, decomposed quantum totals, delay-bound
// margins and violations regress upward;
// throughput, packet counts and speculation savings regress downward.
func MetricDirection(name string) Direction {
	n := strings.ToLower(name)
	for _, s := range lowerBetter {
		if strings.Contains(n, s) {
			return LowerIsBetter
		}
	}
	for _, s := range higherBetter {
		if strings.Contains(n, s) {
			return HigherIsBetter
		}
	}
	return Neutral
}

// Delta is one metric's comparison between a base and a new run.
type Delta struct {
	Name      string  `json:"name"`
	Base      float64 `json:"base"`
	New       float64 `json:"new"`
	Delta     float64 `json:"delta"`
	RelPct    float64 `json:"rel_pct"` // signed; a change from exactly 0 counts as 100%
	Direction string  `json:"direction"`
	Breach    bool    `json:"breach"`
	OnlyIn    string  `json:"only_in,omitempty"` // "base" or "new" when the metric exists on one side
}

// Changed reports whether the metric moved at all (or exists on one side
// only). A run diffed against itself has no changed deltas.
func (d Delta) Changed() bool { return d.Delta != 0 || d.OnlyIn != "" }

// DiffReport is the full comparison of two metric sets.
type DiffReport struct {
	Base         string  `json:"base"`
	New          string  `json:"new"`
	ThresholdPct float64 `json:"threshold_pct"`
	Deltas       []Delta `json:"deltas"`
	Changed      int     `json:"changed"`
	Breaches     int     `json:"breaches"`
	// ConfigChanges lists configuration fields that differ between two
	// manifests ("SpecBufFlits: 12 -> 0"); informational, never a breach.
	ConfigChanges []string `json:"config_changes,omitempty"`
}

// DiffMetrics compares two flat metric maps. A delta breaches when the
// metric has a quality direction, moved the bad way, and the relative
// change exceeds thresholdPct. Metrics present on one side only are
// reported but never breach (new instrumentation must not fail old runs).
func DiffMetrics(base, cur map[string]float64, thresholdPct float64) []Delta {
	union := make(map[string]bool, len(base)+len(cur))
	for k := range base {
		union[k] = true
	}
	for k := range cur {
		union[k] = true
	}
	var out []Delta
	for _, name := range det.Keys(union) {
		bv, inBase := base[name]
		nv, inNew := cur[name]
		d := Delta{Name: name, Base: bv, New: nv, Direction: MetricDirection(name).String()}
		switch {
		case !inBase:
			d.OnlyIn = "new"
		case !inNew:
			d.OnlyIn = "base"
		default:
			d.Delta = nv - bv
			switch {
			case bv != 0:
				d.RelPct = 100 * d.Delta / bv
			case nv != 0:
				d.RelPct = 100
			}
			dir := MetricDirection(name)
			bad := (dir == HigherIsBetter && d.Delta < 0) || (dir == LowerIsBetter && d.Delta > 0)
			if bad && abs(d.RelPct) > thresholdPct {
				d.Breach = true
			}
		}
		out = append(out, d)
	}
	return out
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// DiffManifests compares two run manifests: metric deltas plus an
// informational list of configuration differences.
func DiffManifests(base, cur *Manifest, baseLabel, newLabel string, thresholdPct float64) (*DiffReport, error) {
	r := &DiffReport{
		Base:         baseLabel,
		New:          newLabel,
		ThresholdPct: thresholdPct,
		Deltas:       DiffMetrics(base.Metrics, cur.Metrics, thresholdPct),
	}
	for _, d := range r.Deltas {
		if d.Changed() {
			r.Changed++
		}
		if d.Breach {
			r.Breaches++
		}
	}
	var err error
	if r.ConfigChanges, err = configChanges(base, cur); err != nil {
		return nil, err
	}
	return r, nil
}

// configChanges renders the setup fields that differ between two manifests.
func configChanges(a, b *Manifest) ([]string, error) {
	var out []string
	add := func(name string, av, bv any) {
		if fmt.Sprint(av) != fmt.Sprint(bv) {
			out = append(out, fmt.Sprintf("%s: %v -> %v", name, av, bv))
		}
	}
	add("Tool", a.Tool, b.Tool)
	add("Arch", a.Arch, b.Arch)
	add("Pattern", a.Pattern, b.Pattern)
	add("Seeds", a.Seeds, b.Seeds)
	add("WarmupCycles", a.WarmupCycles, b.WarmupCycles)
	add("MeasureCycles", a.MeasureCycles, b.MeasureCycles)
	add("HostCPUs", a.HostCPUs, b.HostCPUs)
	add("HostGoMaxProcs", a.HostGoMaxProcs, b.HostGoMaxProcs)
	add("FaultPlan", a.FaultPlan, b.FaultPlan)
	am, err := configMap(a)
	if err != nil {
		return nil, err
	}
	bm, err := configMap(b)
	if err != nil {
		return nil, err
	}
	union := make(map[string]bool, len(am)+len(bm))
	for k := range am {
		union[k] = true
	}
	for k := range bm {
		union[k] = true
	}
	for _, k := range det.Keys(union) {
		av, inA := am[k]
		bv, inB := bm[k]
		switch {
		case !inA:
			out = append(out, fmt.Sprintf("%s: (unset) -> %v", k, bv))
		case !inB:
			out = append(out, fmt.Sprintf("%s: %v -> (unset)", k, av))
		default:
			add(k, av, bv)
		}
	}
	return out, nil
}

// configMap returns the manifest's config block as a field → value map,
// including the fields config.LOFT no longer has.
func configMap(m *Manifest) (map[string]any, error) {
	if m.Config == nil {
		return nil, nil
	}
	blob, err := json.Marshal(m.Config)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, err
	}
	for k, v := range m.retiredConfig {
		out[k] = v
	}
	return out, nil
}
