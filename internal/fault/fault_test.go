package fault

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// roundTripSpec exercises every kind, both separators and a comment.
const roundTripSpec = `
	# chaos plan for the dos-isolation scenario
	link-down node=23 dir=south from=2000 to=2600
	flit-loss node=55 dir=south rate=0.02 from=1000 to=5000; router-stall node=7 from=3000 to=3064
	credit-stall node=15 dir=east from=100 to=400
	adversary flow=1 factor=4 cap=0.5 from=0
`

// chaosSmokeSpec is the five-kind plan `make chaos-smoke` runs.
const chaosSmokeSpec = "link-down node=7 dir=south from=700 to=900; flit-loss node=3 dir=east rate=0.3 from=600 to=1800; " +
	"credit-stall node=15 dir=south from=1000 to=1060; router-stall node=9 from=1200 to=1210; adversary flow=1 factor=3 cap=0.6 from=800"

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse(roundTripSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(p.Events))
	}
	canon := p.String()
	p2, err := Parse(canon)
	if err != nil {
		t.Fatalf("canonical form %q does not re-parse: %v", canon, err)
	}
	if p2.String() != canon {
		t.Fatalf("canonical form is not a fixed point:\n  first  %q\n  second %q", canon, p2.String())
	}
	if len(p2.Events) != len(p.Events) {
		t.Fatalf("round trip changed event count: %d != %d", len(p2.Events), len(p.Events))
	}
	for i := range p.Events {
		if p.Events[i] != p2.Events[i] {
			t.Errorf("event %d changed in round trip:\n  %+v\n  %+v", i, p.Events[i], p2.Events[i])
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		spec, want string
	}{
		{"", "empty plan"},
		{"melt-cpu node=1 from=0", "unknown fault kind"},
		{"link-down node=1 from=0", "requires dir="},
		{"link-down node=1 dir=up from=0", "unknown dir"},
		{"link-down dir=south from=0", "requires node="},
		{"link-down node=1 dir=south", "requires from="},
		{"link-down node=1 dir=south from=100 to=100", "window [100,100) is empty"},
		{"link-down node=1 dir=south from=100 to=50", "window [100,50) is empty"},
		{"link-down node=1 dir=south from=0 rate=0.5", "does not take rate="},
		{"link-down node=1 dir=south from=0 node=2", "duplicate field"},
		{"link-down node=x dir=south from=0", "invalid syntax"},
		{"link-down node=1 dir=south from=0 turbo=9", "unknown field"},
		{"link-down node=1 dir south from=0", "want key=value"},
		{"flit-loss node=1 dir=south from=0", "requires rate="},
		{"flit-loss node=1 dir=south rate=1.5 from=0", "outside (0,1]"},
		{"flit-loss node=1 dir=south rate=0 from=0", "outside (0,1]"},
		{"credit-stall node=1 dir=inject from=0", "does not support dir=inject"},
		{"router-stall node=1 dir=south from=0", "does not take dir="},
		{"adversary flow=1 from=0", "requires factor="},
		{"adversary flow=1 factor=0 from=0", "must be positive"},
		{"adversary flow=1 factor=2 cap=0 from=0", "must be positive"},
		{"adversary flow=1 factor=2 node=3 from=0", "does not take node="},
		{"adversary flow=0 factor=NaN from=0", `field "factor=NaN": NaN is not a finite number`},
		{"adversary flow=0 factor=+Inf from=0", `field "factor=+Inf": +Inf is not a finite number`},
		{"adversary flow=0 factor=2 cap=NaN from=0", `field "cap=NaN": NaN is not a finite number`},
		{"adversary flow=0 factor=2 cap=Inf from=0", `field "cap=Inf": Inf is not a finite number`},
		{"flit-loss node=1 dir=east rate=NaN from=0", `field "rate=NaN": NaN is not a finite number`},
		{"flit-loss node=1 dir=east rate=-Inf from=0", `field "rate=-Inf": -Inf is not a finite number`},
	}
	for _, c := range cases {
		if _, err := Parse(c.spec); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.spec, err, c.want)
		}
	}
}

func TestLoadFileAndInline(t *testing.T) {
	spec := "link-down node=3 dir=east from=10 to=20"
	p, err := Load(spec)
	if err != nil {
		t.Fatalf("inline Load: %v", err)
	}
	path := filepath.Join(t.TempDir(), "plan.fault")
	if err := os.WriteFile(path, []byte(spec+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	pf, err := Load(path)
	if err != nil {
		t.Fatalf("file Load: %v", err)
	}
	if p.String() != pf.String() {
		t.Fatalf("inline and file plans differ: %q vs %q", p.String(), pf.String())
	}
}

func TestValidate(t *testing.T) {
	p, err := Parse("link-down node=63 dir=south from=0; adversary flow=2 factor=2 from=0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(64, 3); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := p.Validate(63, 3); err == nil || !strings.Contains(err.Error(), "node 63") {
		t.Errorf("node range: err = %v", err)
	}
	if err := p.Validate(64, 2); err == nil || !strings.Contains(err.Error(), "flow 2") {
		t.Errorf("flow range: err = %v", err)
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(1, 1); err != nil {
		t.Errorf("nil plan Validate: %v", err)
	}
}

func TestWindows(t *testing.T) {
	e := Event{From: 100, To: 200}
	for _, c := range []struct {
		now  uint64
		want bool
	}{{99, false}, {100, true}, {199, true}, {200, false}} {
		if got := e.active(c.now); got != c.want {
			t.Errorf("active(%d) = %v, want %v", c.now, got, c.want)
		}
	}
	open := Event{From: 50}
	if !open.active(1 << 40) {
		t.Error("open-ended window should stay active")
	}
	if open.active(49) {
		t.Error("open-ended window active before From")
	}
}

func TestNodeCompile(t *testing.T) {
	p, err := Parse(`
		link-down node=5 dir=south from=100 to=200
		router-stall node=5 from=300 to=400
		adversary flow=7 factor=3 from=50 to=60
	`)
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Node(4, nil, 1); n != nil {
		t.Error("untargeted node should compile to nil")
	}
	n := p.Node(5, nil, 1)
	if n == nil {
		t.Fatal("targeted node compiled to nil")
	}
	if !n.LinkDown(DirSouth, 150) || n.LinkDown(DirSouth, 200) || n.LinkDown(DirNorth, 150) {
		t.Error("LinkDown window wrong")
	}
	if !n.DenyForward(DirSouth, 100) || n.DenyForward(DirSouth, 99) {
		t.Error("DenyForward window wrong")
	}
	if !n.RouterStalled(350) || n.RouterStalled(400) {
		t.Error("RouterStalled window wrong")
	}
	// Node 9 sources flow 7: it gets the adversary timeline edges only.
	src := p.Node(9, []int{7}, 1)
	if src == nil {
		t.Fatal("adversary source node compiled to nil")
	}
	if src.LinkDown(DirSouth, 150) {
		t.Error("adversary source must not inherit link faults")
	}
	edges := src.Edges(50)
	if len(edges) != 1 || edges[0].Up || edges[0].Ev.Kind != Adversary {
		t.Fatalf("edges at 50 = %+v, want one adversary down edge", edges)
	}
	edges = src.Edges(60)
	if len(edges) != 1 || !edges[0].Up {
		t.Fatalf("edges at 60 = %+v, want one up edge", edges)
	}
}

func TestEdgesTimeline(t *testing.T) {
	p, err := Parse(`
		link-down node=0 dir=east from=20 to=30
		flit-loss node=0 dir=west rate=0.5 from=20 to=25
		credit-stall node=0 dir=east from=10
	`)
	if err != nil {
		t.Fatal(err)
	}
	n := p.Node(0, nil, 42)
	var got []Edge
	for now := uint64(0); now < 40; now++ {
		got = append(got, n.Edges(now)...)
	}
	want := []struct {
		cycle uint64
		kind  Kind
		up    bool
	}{
		{10, CreditStall, false},
		{20, LinkDown, false},
		{20, FlitLoss, false},
		{25, FlitLoss, true},
		{30, LinkDown, true},
	}
	if len(got) != len(want) {
		t.Fatalf("saw %d edges, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Cycle != w.cycle || got[i].Ev.Kind != w.kind || got[i].Up != w.up {
			t.Errorf("edge %d = {cycle %d %s up=%v}, want {cycle %d %s up=%v}",
				i, got[i].Cycle, got[i].Ev.Kind, got[i].Up, w.cycle, w.kind, w.up)
		}
	}
}

func TestLoseFlitDeterministic(t *testing.T) {
	p, err := Parse("flit-loss node=0 dir=south rate=0.5 from=0 to=1000")
	if err != nil {
		t.Fatal(err)
	}
	draw := func() []bool {
		n := p.Node(0, nil, 77)
		var out []bool
		for now := uint64(0); now < 1000; now++ {
			out = append(out, n.LoseFlit(DirSouth, now))
		}
		return out
	}
	a, b := draw(), draw()
	losses := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identically seeded nodes", i)
		}
		if a[i] {
			losses++
		}
	}
	if losses < 400 || losses > 600 {
		t.Errorf("rate=0.5 over 1000 draws lost %d, far from expectation", losses)
	}
	// Outside the window no RNG is consumed and nothing is lost.
	n := p.Node(0, nil, 77)
	if n.LoseFlit(DirSouth, 5000) {
		t.Error("loss outside window")
	}
}

func TestCreditDeferral(t *testing.T) {
	p, err := Parse("credit-stall node=1 dir=east from=100 to=200")
	if err != nil {
		t.Fatal(err)
	}
	n := p.Node(1, nil, 1)
	if n.StallCredits(DirEast, 99) || !n.StallCredits(DirEast, 100) || n.StallCredits(DirEast, 200) {
		t.Fatal("StallCredits window wrong")
	}
	n.DeferCredits(DirEast, []uint64{7, 8})
	n.DeferCredits(DirEast, []uint64{9})
	if n.Deferred(DirEast) != 3 {
		t.Fatalf("deferred %d tags, want 3", n.Deferred(DirEast))
	}
	if got := n.ReleaseCredits(DirEast, 150); got != nil {
		t.Fatalf("released %v inside the stall window", got)
	}
	got := n.ReleaseCredits(DirEast, 200)
	if len(got) != 3 || got[0] != 7 || got[1] != 8 || got[2] != 9 {
		t.Fatalf("released %v, want [7 8 9] in order", got)
	}
	if n.Deferred(DirEast) != 0 {
		t.Error("queue not emptied after release")
	}
	if n.ReleaseCredits(DirEast, 201) != nil {
		t.Error("second release returned tags")
	}
}

func TestRateScaleAndQuarantines(t *testing.T) {
	p, err := Parse(`
		adversary flow=1 factor=4 cap=0.5 from=100 to=200
		adversary flow=1 factor=2 cap=0.3 from=150 to=250
		adversary flow=2 factor=8 from=0
	`)
	if err != nil {
		t.Fatal(err)
	}
	if s := p.RateScale(1, 50); s != 1 {
		t.Errorf("scale before window = %g", s)
	}
	if s := p.RateScale(1, 120); s != 4 {
		t.Errorf("scale in first window = %g", s)
	}
	if s := p.RateScale(1, 175); s != 8 {
		t.Errorf("overlapping windows should multiply: %g", s)
	}
	if s := p.RateScale(0, 120); s != 1 {
		t.Errorf("untargeted flow scaled: %g", s)
	}
	qs := p.Quarantines()
	if len(qs) != 2 || qs[0] != (Quarantine{Flow: 1, Cap: 0.3}) || qs[1] != (Quarantine{Flow: 2, Cap: 0.5}) {
		t.Fatalf("Quarantines() = %+v", qs)
	}
	if !p.HasAdversary() {
		t.Error("HasAdversary false")
	}
	if !p.Adversarial() {
		// every event here is an adversary event, so Adversarial must hold
		t.Error("Adversarial() = false for an all-adversary plan")
	}
}

func TestAdversarialClassification(t *testing.T) {
	mixed, err := Parse("adversary flow=1 factor=2 from=0; link-down node=0 dir=east from=0")
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Adversarial() {
		t.Error("mixed plan classified adversarial-only")
	}
	if mixed.ActiveAt(0) != 2 || mixed.ActiveAt(1<<30) != 2 {
		t.Errorf("ActiveAt open windows = %d, %d", mixed.ActiveAt(0), mixed.ActiveAt(1<<30))
	}
	var nilPlan *Plan
	if !nilPlan.Adversarial() || nilPlan.HasAdversary() || nilPlan.ActiveAt(0) != 0 {
		t.Error("nil plan classification wrong")
	}
}

// FuzzFaultPlan: Parse either rejects its input or returns a plan whose
// floats are finite and whose canonical form parses back to an identical
// plan. It never panics.
func FuzzFaultPlan(f *testing.F) {
	f.Add(roundTripSpec)
	f.Add(chaosSmokeSpec)
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		for _, e := range p.Events {
			for _, v := range []float64{e.Rate, e.Factor, e.Cap} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Parse(%q) accepted a non-finite value: %+v", spec, e)
				}
			}
		}
		canon := p.String()
		p2, err := Parse(canon)
		if err != nil {
			t.Fatalf("canonical form %q of %q does not re-parse: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(p, p2) {
			t.Fatalf("round trip of %q changed the plan:\n  %#v\n  %#v", spec, p.Events, p2.Events)
		}
	})
}
