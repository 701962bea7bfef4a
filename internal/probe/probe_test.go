package probe

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"
)

// TestTracerRingWrap fills a four-event ring part way into a second lap,
// then past the end of the ring twice more, so the write index both moves
// on and resets to the start.
func TestTracerRingWrap(t *testing.T) {
	for _, n := range []uint64{6, 13} {
		tr := NewTracer(4)
		for i := uint64(0); i < n; i++ {
			tr.Emit(Event{Cycle: i, Kind: KindSpecHit})
		}
		if tr.Len() != 4 {
			t.Fatalf("%d events: len = %d, want 4", n, tr.Len())
		}
		if tr.Total() != n || tr.Dropped() != n-4 {
			t.Fatalf("%d events: total=%d dropped=%d, want %d/%d", n, tr.Total(), tr.Dropped(), n, n-4)
		}
		ev := tr.Events()
		for i, e := range ev {
			if want := n - 4 + uint64(i); e.Cycle != want {
				t.Fatalf("%d events: event %d cycle = %d, want %d (oldest overwritten, order kept)", n, i, e.Cycle, want)
			}
		}
		if tr.Count(KindSpecHit) != n {
			t.Fatalf("%d events: count survives wrap: got %d", n, tr.Count(KindSpecHit))
		}
	}
}

func TestNilProbeIsInert(t *testing.T) {
	var p *Probe
	// Every call on the nil probe must be a safe no-op.
	p.Emit(1, KindReserveGrant, 0, 0, 0, 0)
	p.MaybeSample(0)
	if p.Events() != nil || p.Series() != nil || p.Summary() != nil {
		t.Fatal("nil probe emitted data")
	}
	var r *Registry
	r.Gauge("g", func() float64 { return 1 })
	r.Rate("r", func() float64 { return 1 })
	r.Sample(0)
	if r.Series() != nil {
		t.Fatal("nil registry recorded series")
	}
	var tr *Tracer
	tr.Emit(Event{})
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer recorded events")
	}
	// A stage stages only the kinds some consumer wants, whichever emitter
	// is called: an unguarded call site costs a call, never a record.
	st := NewStage(KindSetOf(KindEject))
	st.Emit(1, KindReserveGrant, 0, 0, 0, 0)
	st.EmitSeq(1, KindDataInject, 0, 0, 0, 1, 0)
	st.EmitAux(1, KindPacketDone, 0, 0, 0, 1, 0, 8)
	if recs := st.Drain(); len(recs) != 0 {
		t.Fatalf("stage staged %d unwanted records: %v", len(recs), recs)
	}
	st.EmitAux(2, KindEject, 3, 0, 1, 0, 0, 4)
	if recs := st.Drain(); len(recs) != 1 || recs[0].Kind != KindEject || recs[0].Aux != 4 {
		t.Fatalf("stage dropped a wanted record: %v", recs)
	}
}

func TestRegistrySampling(t *testing.T) {
	p := New(Config{EventCap: 16, SampleEvery: 10})
	var cum float64
	p.Registry().Gauge("occ", func() float64 { return 3 })
	p.Registry().Rate("util", func() float64 { return cum })
	// A cumulative count is a gauge over the count.
	var skips float64
	p.Registry().Gauge("skips", func() float64 { return skips })
	for now := uint64(0); now < 30; now++ {
		cum += 0.5 // half a flit per cycle
		if now == 15 {
			skips += 7
		}
		p.MaybeSample(now)
	}
	series := p.Series()
	byName := map[string]Series{}
	for _, s := range series {
		byName[s.Name] = s
	}
	occ := byName["occ"]
	if len(occ.Samples) != 3 || occ.Samples[1].Cycle != 10 || occ.Samples[2].Value != 3 {
		t.Fatalf("occ samples = %+v", occ.Samples)
	}
	util := byName["util"]
	// The first reading only establishes the baseline; later points are the
	// per-cycle rate over each interval.
	if len(util.Samples) != 2 {
		t.Fatalf("util samples = %+v", util.Samples)
	}
	for _, s := range util.Samples {
		if s.Value != 0.5 {
			t.Fatalf("util rate = %g, want 0.5", s.Value)
		}
	}
	sk := byName["skips"]
	if len(sk.Samples) != 3 || sk.Samples[1].Value != 0 || sk.Samples[2].Value != 7 {
		t.Fatalf("skips samples = %+v", sk.Samples)
	}
}

func TestWriteEventsJSONL(t *testing.T) {
	events := []Event{
		{Cycle: 5, Kind: KindReserveGrant, Node: 3, Loc: 1, Flow: 7, Arg: 42},
		{Cycle: 6, Kind: KindLocalReset, Node: 2, Loc: -1, Flow: -1},
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, events, 0); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 not valid JSON: %v", err)
	}
	if first["kind"] != "reserve-grant" || first["cycle"] != float64(5) {
		t.Fatalf("line 0 = %v", first)
	}
}

func TestWriteEventsJSONLDroppedHeader(t *testing.T) {
	events := []Event{{Cycle: 9, Kind: KindSpecHit}}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, events, 3); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want meta header + 1 event", len(lines))
	}
	var meta map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		t.Fatalf("meta header not valid JSON: %v", err)
	}
	if meta["meta"] != "probe" || meta["dropped"] != float64(3) {
		t.Fatalf("meta header = %v", meta)
	}
	if _, hasKind := meta["kind"]; hasKind {
		t.Fatal("meta header must not carry a kind key (consumers filter on it)")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	series := []Series{{Name: "u", Samples: []Sample{{Cycle: 10, Value: 0.25}}}}
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, series); err != nil {
		t.Fatal(err)
	}
	want := "series,cycle,value\nu,10,0.25\n"
	if buf.String() != want {
		t.Fatalf("csv = %q, want %q", buf.String(), want)
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	events := []Event{
		{Cycle: 1, Kind: KindSpecHit, Node: 4, Loc: 2, Flow: 9, Arg: 11},
		{Cycle: 2, Kind: KindFrameRecycle, Node: 4, Loc: 0, Flow: -1, Arg: 1},
	}
	series := []Series{{Name: "link.u", Samples: []Sample{{Cycle: 2, Value: 0.75}}}}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, events, series, 0); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(parsed.TraceEvents))
	}
	kinds := map[string]bool{}
	for _, te := range parsed.TraceEvents {
		kinds[te["name"].(string)] = true
		if _, ok := te["ph"].(string); !ok {
			t.Fatalf("trace event missing phase: %v", te)
		}
	}
	if !kinds["spec-hit"] || !kinds["frame-recycle"] || !kinds["link.u"] {
		t.Fatalf("missing expected tracks: %v", kinds)
	}
}

// TestWriteChromeTraceCounterSeries pins the counter-track encoding: each
// series sample must become a ph="C" event on pid 0 carrying args.value at
// ts = cycle, and the drop count must land in otherData.
func TestWriteChromeTraceCounterSeries(t *testing.T) {
	series := []Series{
		{Name: "buf.n0", Samples: []Sample{{Cycle: 10, Value: 2}, {Cycle: 20, Value: 5}}},
		{Name: "link.u", Samples: []Sample{{Cycle: 10, Value: 0.5}}},
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, nil, series, 7); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			PID   int32          `json:"pid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
		OtherData map[string]any `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) != 3 {
		t.Fatalf("got %d counter events, want 3", len(parsed.TraceEvents))
	}
	want := map[string][]Sample{"buf.n0": series[0].Samples, "link.u": series[1].Samples}
	seen := map[string]int{}
	for _, te := range parsed.TraceEvents {
		if te.Phase != "C" {
			t.Fatalf("series event phase = %q, want C", te.Phase)
		}
		if te.PID != 0 {
			t.Fatalf("counter track pid = %d, want 0", te.PID)
		}
		samples, ok := want[te.Name]
		if !ok {
			t.Fatalf("unexpected track %q", te.Name)
		}
		s := samples[seen[te.Name]]
		seen[te.Name]++
		if te.TS != float64(s.Cycle) || te.Args["value"] != s.Value {
			t.Fatalf("track %q point = ts %g value %v, want ts %d value %g",
				te.Name, te.TS, te.Args["value"], s.Cycle, s.Value)
		}
	}
	if parsed.OtherData["dropped_events"] != float64(7) {
		t.Fatalf("otherData dropped_events = %v, want 7", parsed.OtherData["dropped_events"])
	}
}

func TestKindNamesComplete(t *testing.T) {
	for k := Kind(0); int(k) < NumKinds(); k++ {
		if strings.HasPrefix(k.String(), "kind-") || k.String() == "" {
			t.Fatalf("kind %d has no name", int(k))
		}
	}
}

// TestRegistrySeriesExact pins every value Series exports for a registry
// whose gauges come and go: a gauge registered after sampling began starts
// at its first sample point, a rate gauge drops its first reading as the
// baseline and skips a reading whose cycle does not advance past the
// previous one (while still taking it as the next baseline), and two gauges
// of one name export as two series in registration order.
func TestRegistrySeriesExact(t *testing.T) {
	var r Registry
	occ, cum := 1.0, 0.0
	r.Gauge("b.occ", func() float64 { return occ })
	r.Rate("a.util", func() float64 { return cum })
	r.Sample(10)
	occ, cum = 2, 5
	r.Sample(20)
	r.Gauge("c.late", func() float64 { return occ * 10 })
	r.Gauge("b.occ", func() float64 { return -occ })
	r.Rate("d.late", func() float64 { return cum * 2 })
	cum = 11
	r.Sample(20)
	occ, cum = 3, 17
	r.Sample(23)
	cum = 20
	r.Sample(7)
	r.Sample(11)
	want := []Series{
		{Name: "a.util", Samples: []Sample{{20, 0.5}, {23, 2}, {11, 0}}},
		{Name: "b.occ", Samples: []Sample{{10, 1}, {20, 2}, {20, 2}, {23, 3}, {7, 3}, {11, 3}}},
		{Name: "b.occ", Samples: []Sample{{20, -2}, {23, -3}, {7, -3}, {11, -3}}},
		{Name: "c.late", Samples: []Sample{{20, 20}, {23, 30}, {7, 30}, {11, 30}}},
		{Name: "d.late", Samples: []Sample{{23, 4}, {11, 0}}},
	}
	got := r.Series()
	if len(got) != len(want) {
		t.Fatalf("%d series, want %d: %+v", len(got), len(want), got)
	}
	for i := range want {
		if got[i].Name != want[i].Name || !slices.Equal(got[i].Samples, want[i].Samples) {
			t.Errorf("series %d = %s %v, want %s %v", i, got[i].Name, got[i].Samples, want[i].Name, want[i].Samples)
		}
	}
}

// TestRetireStopsPolling checks that a retired family is never read again,
// keeps the samples it took, and that retiring out of registration order
// leaves the families around it intact.
func TestRetireStopsPolling(t *testing.T) {
	var r Registry
	var reads [3]int
	fam := func(k int) Family {
		return r.Gauges(2, func(i int) string { return fmt.Sprintf("f%d.%d", k, i) }, func(i int) float64 {
			reads[k]++
			return float64(10*k + i)
		})
	}
	a, b := fam(0), fam(1)
	r.Sample(1)
	r.Retire(b) // out of order: a is still live
	r.Sample(2)
	c := fam(2)
	r.Sample(3)
	r.Retire(a)
	r.Retire(a) // twice is a no-op
	r.Sample(4)
	r.Retire(c)
	r.Sample(5)
	if reads != [3]int{6, 2, 4} {
		t.Fatalf("reads per family = %v, want [6 2 4]", reads)
	}
	want := map[string][]Sample{
		"f0.0": {{1, 0}, {2, 0}, {3, 0}}, "f0.1": {{1, 1}, {2, 1}, {3, 1}},
		"f1.0": {{1, 10}}, "f1.1": {{1, 11}},
		"f2.0": {{3, 20}, {4, 20}}, "f2.1": {{3, 21}, {4, 21}},
	}
	got := r.Series()
	if len(got) != len(want) {
		t.Fatalf("%d series, want %d", len(got), len(want))
	}
	for _, s := range got {
		if !slices.Equal(s.Samples, want[s.Name]) {
			t.Errorf("%s = %v, want %v", s.Name, s.Samples, want[s.Name])
		}
	}
}

// TestSampleAllocs checks that sampling allocates only when the registry's
// one slab or its row list grows: 64 sample points make O(log samples)
// allocations under one bound for 20 gauges and for 2,000 alike.
func TestSampleAllocs(t *testing.T) {
	const points = 64
	// Registration and one growth per doubling of the slab and of the row
	// list make 16; the bound is twice the growths, so an allocation the
	// runtime makes on its own (as under -race) does not fail the test.
	limit := 4 * float64(bits.Len(points))
	for _, gauges := range []int{20, 2000} {
		n := testing.AllocsPerRun(3, func() {
			var r Registry
			r.Gauges(gauges, func(int) string { return "g" }, func(i int) float64 { return float64(i) })
			for c := uint64(0); c < points; c++ {
				r.Sample(c)
			}
		})
		if n > limit {
			t.Errorf("64 samples of %d gauges: %.0f allocations, want at most %.0f", gauges, n, limit)
		}
	}
}
