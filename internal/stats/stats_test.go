package stats

import (
	"math"
	"testing"

	"loft/internal/flit"
)

func TestLatencyBasics(t *testing.T) {
	l := NewLatencySeeded(100, 0)
	l.Observe(50, 90) // before warmup: ignored
	l.Observe(100, 110)
	l.Observe(200, 240)
	if l.Count() != 2 {
		t.Fatalf("count = %d", l.Count())
	}
	if l.Mean() != 25 {
		t.Fatalf("mean = %f", l.Mean())
	}
	if l.Max() != 40 {
		t.Fatalf("max = %d", l.Max())
	}
}

func TestLatencyPercentile(t *testing.T) {
	l := NewLatencySeeded(0, 0)
	for i := uint64(1); i <= 100; i++ {
		l.Observe(0, i)
	}
	if p := l.Percentile(50); p != 50 {
		t.Fatalf("p50 = %f", p)
	}
	if p := l.Percentile(99); p != 99 {
		t.Fatalf("p99 = %f", p)
	}
	empty := NewLatencySeeded(0, 0)
	if empty.Percentile(99) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestFlowLatency(t *testing.T) {
	l := NewFlowLatency(10)
	l.Observe(1, 5, 10) // pre-warmup
	l.Observe(1, 10, 30)
	l.Observe(1, 20, 60)
	l.Observe(2, 10, 15)
	if l.Count(1) != 2 || l.Mean(1) != 30 || l.Max(1) != 40 {
		t.Fatalf("flow 1: count=%d mean=%f max=%d", l.Count(1), l.Mean(1), l.Max(1))
	}
	if l.Mean(2) != 5 {
		t.Fatalf("flow 2 mean = %f", l.Mean(2))
	}
	if l.Mean(3) != 0 {
		t.Fatal("unknown flow should be 0")
	}
}

func TestThroughputWindows(t *testing.T) {
	th := NewThroughput(100)
	for now := uint64(0); now < 300; now++ {
		th.Observe(1, 3, now) // 1 flit/cycle
	}
	th.Close(300)
	if r := th.Flow(1); math.Abs(r-1.0) > 0.01 {
		t.Fatalf("flow rate = %f, want ~1 (warmup excluded)", r)
	}
	if r := th.Node(3); math.Abs(r-1.0) > 0.01 {
		t.Fatalf("node rate = %f", r)
	}
	if th.Total() != th.Flow(1) {
		t.Fatal("total != single flow rate")
	}
}

func TestLatencyReservoirDeterministic(t *testing.T) {
	mk := func(seed uint64) *Latency {
		l := NewLatencySeeded(0, seed)
		l.capHint = 64
		for i := uint64(0); i < 5000; i++ {
			l.Observe(0, 1+i%977)
		}
		return l
	}
	a, b := mk(7), mk(7)
	for _, p := range []float64{10, 50, 90, 99} {
		if a.Percentile(p) != b.Percentile(p) {
			t.Fatalf("p%.0f differs across same-seed runs: %f vs %f", p, a.Percentile(p), b.Percentile(p))
		}
	}
	c := mk(8)
	diff := false
	for _, p := range []float64{10, 50, 90, 99} {
		if a.Percentile(p) != c.Percentile(p) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical reservoirs (suspicious)")
	}
}

func TestLatencyReservoirUniform(t *testing.T) {
	// Feed an increasing ramp far larger than the reservoir. A uniform
	// reservoir keeps late samples as readily as early ones, so the median
	// of the retained set tracks the true median; the old first-capHint
	// policy would have frozen the reservoir on the lowest values.
	l := NewLatencySeeded(0, 3)
	l.capHint = 200
	const n = 20000
	for i := uint64(1); i <= n; i++ {
		l.Observe(0, i)
	}
	if len(l.samples) != l.capHint {
		t.Fatalf("reservoir size = %d, want %d", len(l.samples), l.capHint)
	}
	med := l.Percentile(50)
	if med < 0.35*n || med > 0.65*n {
		t.Fatalf("median of retained samples = %f, want near %d", med, n/2)
	}
	if p99 := l.Percentile(99); p99 < 0.85*n {
		t.Fatalf("p99 = %f, tail not represented", p99)
	}
}

func TestThroughputPreWarmupWindow(t *testing.T) {
	// Pre-warmup ejections must not open or extend the measurement window.
	th := NewThroughput(100)
	th.Observe(1, 0, 50)
	th.Observe(1, 0, 99)
	if th.TotalFlits() != 0 {
		t.Fatalf("pre-warmup flits counted: %d", th.TotalFlits())
	}
	if th.end != 0 {
		t.Fatalf("pre-warmup observation advanced end to %d", th.end)
	}
	if th.Total() != 0 {
		t.Fatalf("rate with empty window = %f, want 0", th.Total())
	}
	// First measured ejection opens the window at warmup.
	th.Observe(1, 0, 150)
	if th.end != 151 {
		t.Fatalf("end = %d, want 151", th.end)
	}
	if r := th.Flow(1); math.Abs(r-1.0/51) > 1e-12 {
		t.Fatalf("flow rate = %f, want %f", r, 1.0/51)
	}
	// Close extends but never shrinks the window.
	th.Close(120)
	if th.end != 151 {
		t.Fatalf("Close shrank end to %d", th.end)
	}
	th.Close(200)
	if th.end != 200 {
		t.Fatalf("Close did not extend end: %d", th.end)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.Min != 1 || s.Max != 4 || s.Avg != 2.5 || s.N != 4 {
		t.Fatalf("summary = %+v", s)
	}
	wantSD := math.Sqrt(1.25) / 2.5
	if math.Abs(s.Stdev-wantSD) > 1e-9 {
		t.Fatalf("stdev = %f, want %f", s.Stdev, wantSD)
	}
	if z := Summarize(nil); z.N != 0 || z.Avg != 0 {
		t.Fatalf("empty summary = %+v", z)
	}
}

// TestThroughputObserveNEquivalence checks that one ObserveN(n) call is
// indistinguishable from n Observe calls at the same cycle — the contract
// the LOFT network's batched quantum ejection accounting relies on — and
// that non-positive counts and pre-warmup batches are ignored.
func TestThroughputObserveNEquivalence(t *testing.T) {
	one := NewThroughput(10)
	batch := NewThroughput(10)
	obs := []struct {
		flow flit.FlowID
		src  int
		n    int
		now  uint64
	}{
		{1, 0, 4, 5},  // pre-warmup: both must drop it
		{1, 0, 4, 12}, // measured
		{2, 3, 1, 12},
		{1, 0, 7, 20},
		{2, 3, 0, 25},  // n=0: no-op, must not extend the window
		{2, 3, -2, 25}, // negative: no-op
	}
	for _, o := range obs {
		for i := 0; i < o.n; i++ {
			one.Observe(o.flow, o.src, o.now)
		}
		batch.ObserveN(o.flow, o.src, o.n, o.now)
	}
	if a, b := one.TotalFlits(), batch.TotalFlits(); a != b {
		t.Fatalf("TotalFlits: per-flit %d, batched %d", a, b)
	}
	for _, f := range []flit.FlowID{1, 2, 3} {
		if a, b := one.Flow(f), batch.Flow(f); a != b {
			t.Fatalf("Flow(%d): per-flit %v, batched %v", f, a, b)
		}
	}
	for _, n := range []int{0, 3, 5} {
		if a, b := one.Node(n), batch.Node(n); a != b {
			t.Fatalf("Node(%d): per-flit %v, batched %v", n, a, b)
		}
	}
	if a, b := one.Total(), batch.Total(); a != b {
		t.Fatalf("Total: per-flit %v, batched %v", a, b)
	}
	if got, want := batch.Total(), 12.0/11.0; got != want {
		t.Fatalf("Total = %v, want %v (12 flits over window [10,21))", got, want)
	}
}

// TestLatencyReservoirAllocatesOnce checks that the reservoir is allocated
// whole at the first recorded packet: filling it and sampling past its size
// allocate nothing more, so a run's steady state does not depend on how many
// packets it has measured.
func TestLatencyReservoirAllocatesOnce(t *testing.T) {
	l := NewLatencySeeded(10, 1)
	l.Observe(5, 20) // created before warm-up: not recorded
	if l.samples != nil {
		t.Fatal("reservoir allocated before the first recorded packet")
	}
	l.Observe(10, 20)
	if cap(l.samples) != l.capHint {
		t.Fatalf("reservoir capacity %d after the first recorded packet, want %d", cap(l.samples), l.capHint)
	}
	var done uint64
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 1<<17; i++ {
			done++
			l.Observe(10, 10+done%500)
		}
	}); n != 0 {
		t.Errorf("filling the reservoir and sampling past it: %.0f allocations, want 0", n)
	}
}
