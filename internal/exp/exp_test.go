package exp

import (
	"math"
	"testing"

	"loft/internal/core"
)

func TestFig6Ordering(t *testing.T) {
	rows := Fig6FlowControl()
	if len(rows) != 3 {
		t.Fatalf("want 3 schemes, got %d", len(rows))
	}
	wormhole, gsf, frs := rows[0], rows[1], rows[2]
	// FRS achieves zero turn-around: strictly fastest; GSF's
	// one-packet-per-VC rule makes it strictly slower than wormhole.
	if !(frs.DoneCycle < wormhole.DoneCycle) {
		t.Fatalf("FRS (%d) not faster than wormhole (%d)", frs.DoneCycle, wormhole.DoneCycle)
	}
	if !(wormhole.DoneCycle < gsf.DoneCycle) {
		t.Fatalf("wormhole (%d) not faster than GSF (%d)", wormhole.DoneCycle, gsf.DoneCycle)
	}
	// After the look-ahead lead, FRS is perfectly back-to-back.
	if frs.LinkBusy != 16 || frs.DoneCycle > 16+4 {
		t.Fatalf("FRS not back-to-back: %+v", frs)
	}
}

func TestFig10EqualFairness(t *testing.T) {
	rows, err := Fig10Fairness(AllocEqual, Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("equal allocation should report one region, got %d", len(rows))
	}
	r := rows[0]
	if r.Flows != 63 {
		t.Fatalf("want 63 flows, got %d", r.Flows)
	}
	// Paper Fig 10a: avg 0.0156 flits/cycle/node, stdev 0.4%.
	if r.Avg < 0.012 || r.Avg > 0.02 {
		t.Fatalf("average throughput %.5f outside hotspot share band", r.Avg)
	}
	if r.StdevPct > 10 {
		t.Fatalf("throughput stdev %.1f%% too high for equal allocation", r.StdevPct)
	}
}

func TestFig10DifferentiatedRatios(t *testing.T) {
	rows, err := Fig10Fairness(AllocDiff2, Options{Seed: 2, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 regions, got %d", len(rows))
	}
	ratio := rows[0].Avg / rows[1].Avg
	// Weights 3:1 → paper reports 0.0226 vs 0.0078 ≈ 2.9.
	if ratio < 2 || ratio > 4 {
		t.Fatalf("R1/R2 throughput ratio %.2f, want ≈ 3", ratio)
	}
}

func TestFig12IsolationShape(t *testing.T) {
	o := Options{Seed: 3, Quick: true}
	loft, err := Fig12CaseI(core.ArchLOFT, o)
	if err != nil {
		t.Fatal(err)
	}
	gsf, err := Fig12CaseI(core.ArchGSF, o)
	if err != nil {
		t.Fatal(err)
	}
	lFirst, lLast := loft[0], loft[len(loft)-1]
	gFirst, gLast := gsf[0], gsf[len(gsf)-1]

	// LOFT: the victim's latency stays within a small factor as aggressors
	// saturate; its throughput stays at the regulated 0.2.
	if lLast.Latency[0] > 4*lFirst.Latency[0]+50 {
		t.Fatalf("LOFT victim latency not isolated: %.1f -> %.1f", lFirst.Latency[0], lLast.Latency[0])
	}
	if lLast.Throughput[0] < 0.15 {
		t.Fatalf("LOFT victim throughput degraded to %.3f", lLast.Throughput[0])
	}
	// LOFT penalizes the aggressors: their latency grows far more than the
	// victim's.
	if lLast.Latency[1] < 2*lLast.Latency[0] {
		t.Fatalf("LOFT aggressor latency %.1f not penalized vs victim %.1f", lLast.Latency[1], lLast.Latency[0])
	}
	// GSF: the victim's latency degrades much more than under LOFT.
	gsfDeg := gLast.Latency[0] / (gFirst.Latency[0] + 1)
	loftDeg := lLast.Latency[0] / (lFirst.Latency[0] + 1)
	if gsfDeg < 2*loftDeg {
		t.Fatalf("GSF victim degradation %.2fx not clearly worse than LOFT %.2fx", gsfDeg, loftDeg)
	}
	// LOFT keeps the hotspot link highly utilized under attack (paper:
	// >90%; our GSF reimplementation is more efficient than the authors'
	// and also reaches high utilization, so the comparative <60% claim is
	// recorded in EXPERIMENTS.md rather than asserted).
	if lLast.Aggregate < 0.8 {
		t.Fatalf("LOFT aggregate %.3f under attack, want > 0.8", lLast.Aggregate)
	}
}

func TestFig13PathologicalShape(t *testing.T) {
	o := Options{Seed: 4, Quick: true}
	loft, err := Fig13CaseII(core.ArchLOFT, o)
	if err != nil {
		t.Fatal(err)
	}
	gsf, err := Fig13CaseII(core.ArchGSF, o)
	if err != nil {
		t.Fatal(err)
	}
	lLast := loft[len(loft)-1]
	gLast := gsf[len(gsf)-1]
	// LOFT: the stripped node exploits its private link far beyond the grey
	// nodes' saturated share.
	if lLast.Stripped < 4*lLast.Grey {
		t.Fatalf("LOFT stripped %.3f not isolated from grey %.3f", lLast.Stripped, lLast.Grey)
	}
	// GSF: global frame recycling throttles the stripped node near the grey
	// nodes' rate.
	if gLast.Stripped > gLast.Grey*6 {
		t.Fatalf("GSF stripped %.3f unexpectedly isolated from grey %.3f", gLast.Stripped, gLast.Grey)
	}
	// LOFT's stripped node clearly beats GSF's.
	if lLast.Stripped < 2*gLast.Stripped {
		t.Fatalf("LOFT stripped %.4f not above GSF stripped %.4f", lLast.Stripped, gLast.Stripped)
	}
}

func TestDelayBoundsHold(t *testing.T) {
	rows, err := DelayBounds(Options{Seed: 5, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Arch == "LOFT" {
			if !r.Holds {
				t.Fatalf("LOFT bound violated: observed %d > bound %d", r.MaxObserved, r.BoundCycles)
			}
			if r.BoundCycles != 512*uint64(r.Hops) {
				t.Fatalf("LOFT bound %d, want %d", r.BoundCycles, 512*r.Hops)
			}
		}
		if r.Arch == "GSF" && r.BoundCycles != 24000 {
			t.Fatalf("GSF bound %d, want 24000", r.BoundCycles)
		}
	}
}

// TestAblationShape checks the claims EXPERIMENTS.md makes of the ablation
// studies on one quick run: the bursty flow drops nothing, speculation cuts
// light-load network latency, per-node throughput holds as the mesh grows,
// and the guarantees cost LOFT raw throughput against both GSF and wormhole.
func TestAblationShape(t *testing.T) {
	if raceEnabled {
		// Twelve 8k-cycle runs, four of them saturated, are minutes under
		// the race detector; TestFig10SweepDeterminism exercises the same
		// shared-state surface there.
		t.Skip("skipped under -race; covered by TestFig10SweepDeterminism")
	}
	rows, err := Ablations(Options{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	row := map[string]AblationRow{}
	for _, r := range rows {
		row[r.Study+" "+r.Variant] = r
	}
	if len(row) != 12 {
		t.Fatalf("%d distinct variants, want 12", len(row))
	}
	if b := row["bursty 0->63 60/400"]; b.Drops != 0 || b.Total == 0 {
		t.Errorf("bursty flow: %d drops, %.4f flits/cycle accepted; want no drops", b.Drops, b.Total)
	}
	if s0, s4 := row["spec spec=0"].NetLatency, row["spec spec=4"].NetLatency; s0 <= s4 {
		t.Errorf("net latency spec=0 %.2f not above spec=4 %.2f", s0, s4)
	}
	lo, hi := math.Inf(1), 0.0
	for _, k := range []string{"4x4", "8x8", "12x12"} {
		a := row["mesh "+k].Accepted
		lo, hi = math.Min(lo, a), math.Max(hi, a)
	}
	if hi > 1.1*lo {
		t.Errorf("accepted flits/cycle/node spans %.4f–%.4f across meshes, more than 10%%", lo, hi)
	}
	l, g, w := row["qos LOFT"].Accepted, row["qos GSF"].Accepted, row["qos wormhole"].Accepted
	if l >= g || l >= w {
		t.Errorf("LOFT accepts %.4f at 0.44, not below GSF %.4f and wormhole %.4f", l, g, w)
	}
}
