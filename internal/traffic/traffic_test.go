package traffic

import (
	"math"
	"reflect"
	"testing"

	"loft/internal/flit"
	"loft/internal/route"
	"loft/internal/topo"
)

func TestUniformPattern(t *testing.T) {
	m := topo.NewMesh(8)
	p := Uniform(m, 0.3, 4, 256)
	if len(p.Flows) != 64 {
		t.Fatalf("flows = %d", len(p.Flows))
	}
	for _, f := range p.Flows {
		if f.Reservation != 4 {
			t.Fatalf("uniform reservation = %d, want F/64 = 4", f.Reservation)
		}
	}
	if err := p.Validate(256, 2); err != nil {
		t.Fatal(err)
	}
}

func TestHotspotEqualReservations(t *testing.T) {
	m := topo.NewMesh(8)
	p, err := Hotspot(m, 63, 0.5, 4, 256, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Flows) != 63 {
		t.Fatalf("flows = %d", len(p.Flows))
	}
	sum := 0
	for _, f := range p.Flows {
		if f.Dst != 63 {
			t.Fatalf("flow %d dst = %d", f.ID, f.Dst)
		}
		sum += f.Reservation
	}
	if sum > 256 {
		t.Fatalf("ΣR = %d > F", sum)
	}
	if err := p.Validate(256, 2); err != nil {
		t.Fatal(err)
	}
}

// TestHotspotAdmission checks that Hotspot returns its pattern when the
// frame holds one quantum per flow on the hotspot's ejection link, and an
// error, not a panic, when it does not.
func TestHotspotAdmission(t *testing.T) {
	for _, tc := range []struct {
		name                string
		k                   int
		hot                 topo.NodeID
		frame, quantumFlits int
		wantErr             string // "" when accepted
	}{
		{"paper-8x8", 8, 63, 256, 2, ""},
		{"4x4-inner-hotspot", 4, 5, 32, 2, ""},
		{"5x5-24-flows-16-quanta", 5, 24, 32, 2, "traffic: hotspot weights overflow frame: traffic: ΣR=20 quanta exceeds frame size 16 quanta on link 19.S"},
	} {
		p, err := Hotspot(topo.NewMesh(tc.k), tc.hot, 0.1, 4, tc.frame, tc.quantumFlits, nil)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr == "" && len(p.Flows) != tc.k*tc.k-1:
			t.Errorf("%s: %d flows, want %d", tc.name, len(p.Flows), tc.k*tc.k-1)
		case tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestHotspotWeightedReservations(t *testing.T) {
	m := topo.NewMesh(8)
	p, err := Hotspot(m, 63, 0.5, 4, 256, 2, QuadrantWeight(m, [4]int{3, 2, 2, 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(256, 2); err != nil {
		t.Fatal(err)
	}
	// Node 0 is in quadrant 0 (weight 3); node 7 in quadrant 1 (weight 2).
	var r0, r7 int
	for _, f := range p.Flows {
		if f.Src == 0 {
			r0 = f.Reservation
		}
		if f.Src == 7 {
			r7 = f.Reservation
		}
	}
	if r0*2 != r7*3 {
		t.Fatalf("weights not 3:2 — R(0)=%d R(7)=%d", r0, r7)
	}
}

func TestCaseStudyIFlows(t *testing.T) {
	m := topo.NewMesh(8)
	p := CaseStudyI(m, 0.2, 0.8, 4, 256)
	if len(p.Flows) != 3 {
		t.Fatalf("flows = %d", len(p.Flows))
	}
	wantSrcs := []topo.NodeID{0, 48, 56}
	for i, f := range p.Flows {
		if f.Src != wantSrcs[i] || f.Dst != 63 {
			t.Fatalf("flow %d: %d->%d", i, f.Src, f.Dst)
		}
		if f.Reservation != 64 {
			t.Fatalf("flow %d reservation = %d, want F/4", i, f.Reservation)
		}
	}
	if err := p.Validate(256, 2); err != nil {
		t.Fatal(err)
	}
}

func TestCaseStudyIIIsolatedLink(t *testing.T) {
	m := topo.NewMesh(8)
	p := CaseStudyII(m, 0.5, 4, 256)
	stripped := CaseStudyIIStripped(p)
	grey := CaseStudyIIGrey(p)
	if len(grey) != 8 {
		t.Fatalf("grey flows = %d", len(grey))
	}
	// The stripped flow's path shares no link with any grey flow.
	strippedLinks := map[topo.Link]bool{}
	for l, flows := range p.LinkFlows() {
		for _, id := range flows {
			if id == stripped {
				strippedLinks[l] = true
			}
		}
	}
	for l, flows := range p.LinkFlows() {
		if !strippedLinks[l] {
			continue
		}
		for _, id := range flows {
			if id != stripped {
				t.Fatalf("grey flow %d shares link %s with the stripped flow", id, l)
			}
		}
	}
	if err := p.Validate(256, 2); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorRate(t *testing.T) {
	m := topo.NewMesh(4)
	p := SingleFlow(m, 0, 15, 0.4, 4, 32)
	in := NewInjector(p, 0, 9)
	flits := 0
	const cycles = 200000
	for now := uint64(0); now < cycles; now++ {
		for _, pkt := range in.Next(now) {
			flits += pkt.Flits
		}
	}
	rate := float64(flits) / cycles
	if math.Abs(rate-0.4) > 0.02 {
		t.Fatalf("offered rate = %f, want 0.4", rate)
	}
}

func TestInjectorDeterminism(t *testing.T) {
	m := topo.NewMesh(4)
	p := Uniform(m, 0.3, 4, 32)
	a := NewInjector(p, 3, 7)
	b := NewInjector(p, 3, 7)
	for now := uint64(0); now < 5000; now++ {
		pa, pb := a.Next(now), b.Next(now)
		if len(pa) != len(pb) {
			t.Fatal("same-seed injectors diverged")
		}
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("same-seed packets differ")
			}
		}
	}
}

// TestInitInjectorsMatchNewInjector checks that the injectors InitInjectors
// sets up in place, their state cut from shared slabs, generate exactly
// the packets of injectors NewInjector builds one by one, for rate, on/off
// and trace-replay generators alike.
func TestInitInjectorsMatchNewInjector(t *testing.T) {
	m := topo.NewMesh(4)
	trace, err := FromTrace(m, SyntheticTrace(m, 50, 2000, 4, 7), 4, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	bursty := Bursty(m, 0, 15, 40, 200, 4, 32)
	bursty.Gens[0] = append(bursty.Gens[0], Gen{Flow: 0, Rate: 0.3, RandomDst: true})
	for _, p := range []*Pattern{Uniform(m, 0.3, 4, 32), bursty, trace} {
		ins := make([]Injector, m.N())
		InitInjectors(p, 7, func(i int) *Injector { return &ins[i] })
		for n := range ins {
			want := NewInjector(p, topo.NodeID(n), 7)
			for now := uint64(0); now < 3000; now++ {
				if got, want := ins[n].Next(now), want.Next(now); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s node %d cycle %d: %v, want %v", p.Name, n, now, got, want)
				}
			}
		}
	}
}

func TestInjectorSequenceNumbers(t *testing.T) {
	m := topo.NewMesh(4)
	p := SingleFlow(m, 0, 15, 0.9, 4, 32)
	in := NewInjector(p, 0, 1)
	var last int64 = -1
	for now := uint64(0); now < 2000; now++ {
		for _, pkt := range in.Next(now) {
			if int64(pkt.Seq) != last+1 {
				t.Fatalf("sequence gap: %d after %d", pkt.Seq, last)
			}
			last = int64(pkt.Seq)
		}
	}
	if last < 100 {
		t.Fatalf("too few packets: %d", last)
	}
}

func TestValidateRejectsOversubscription(t *testing.T) {
	m := topo.NewMesh(8)
	p, err := Hotspot(m, 63, 0.5, 4, 256, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Inflate one reservation to break ΣR ≤ F on the ejection link.
	p.Flows[0].Reservation = 256
	if err := p.Validate(256, 2); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestNearestNeighborAndTranspose(t *testing.T) {
	m := topo.NewMesh(8)
	for _, p := range []*Pattern{NearestNeighbor(m, 0.2, 4, 256), Transpose(m, 0.2, 4, 256)} {
		if err := p.Validate(256, 2); err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		for _, f := range p.Flows {
			if f.Src == f.Dst {
				t.Fatalf("%s: self flow %d", p.Name, f.ID)
			}
		}
	}
}

func TestFlowIDsAreDense(t *testing.T) {
	m := topo.NewMesh(8)
	p, err := Hotspot(m, 63, 0.5, 4, 256, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range p.Flows {
		if f.ID != flit.FlowID(i) {
			t.Fatalf("flow ids not dense at %d", i)
		}
	}
}

func TestBurstyGeneratorAlternates(t *testing.T) {
	m := topo.NewMesh(4)
	p := Bursty(m, 0, 15, 40, 200, 4, 32)
	in := NewInjector(p, 0, 5)
	flits, busyWindows := 0, 0
	const win = 100
	const windows = 400
	for w := 0; w < windows; w++ {
		got := 0
		for c := 0; c < win; c++ {
			for _, pkt := range in.Next(uint64(w*win + c)) {
				got += pkt.Flits
			}
		}
		flits += got
		if got > 0 {
			busyWindows++
		}
	}
	if flits == 0 {
		t.Fatal("bursty generator produced nothing")
	}
	// On/off: a clear minority of windows are busy, but bursts hit near
	// full rate when on (duty cycle ≈ 40/240).
	if busyWindows == 0 || busyWindows == windows {
		t.Fatalf("no on/off structure: %d/%d busy windows", busyWindows, windows)
	}
	duty := float64(flits) / float64(windows*win)
	if duty < 0.05 || duty > 0.4 {
		t.Fatalf("duty cycle %.3f outside expected band", duty)
	}
}

// refLinkFlows is the plain transcription of LinkFlows: one append-grown
// list per link, every flow added to every link it may use.
func refLinkFlows(p *Pattern) map[topo.Link][]flit.FlowID {
	out := make(map[topo.Link][]flit.FlowID)
	add := func(l topo.Link, f flit.FlowID) { out[l] = append(out[l], f) }
	for _, f := range p.Flows {
		add(topo.InjectionLink(f.Src), f.ID)
		if !p.AllLinks {
			for _, l := range route.Path(p.Mesh, f.Src, f.Dst) {
				add(l, f.ID)
			}
			continue
		}
		for n := 0; n < p.Mesh.N(); n++ {
			for d := topo.North; d < topo.NumDirs; d++ {
				if _, ok := p.Mesh.Neighbor(topo.NodeID(n), d); ok || d == topo.Local {
					add(topo.Link{From: topo.NodeID(n), D: d}, f.ID)
				}
			}
		}
	}
	return out
}

// TestLinkFlowsMatchReference compares LinkFlows, which cuts its lists from
// one array and shares the all-flows list under AllLinks, with the plain
// transcription on every pattern family.
func TestLinkFlowsMatchReference(t *testing.T) {
	m := topo.NewMesh(4)
	trace, err := FromTrace(m, SyntheticTrace(m, 40, 500, 4, 3), 4, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Hotspot(m, 5, 0.3, 4, 32, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []*Pattern{
		Uniform(m, 0.3, 4, 32),
		hot,
		CaseStudyI(topo.NewMesh(8), 0.1, 0.5, 4, 256),
		CaseStudyII(topo.NewMesh(8), 0.5, 4, 256),
		NearestNeighbor(m, 0.2, 4, 32),
		Transpose(m, 0.2, 4, 32),
		SingleFlow(m, 0, 15, 0.1, 4, 32),
		SingleFlow(m, 6, 6, 0.1, 4, 32),
		trace,
		{Name: "empty", Mesh: m, AllLinks: true},
	} {
		got, want := p.LinkFlows(), refLinkFlows(p)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: LinkFlows differs from the reference: %d links, want %d", p.Name, len(got), len(want))
		}
		for l, flows := range got {
			if len(flows) != cap(flows) {
				t.Errorf("%s: link %s list has room for %d more flows", p.Name, l, cap(flows)-len(flows))
			}
		}
	}
}

// TestLinkFlowsAllocs pins LinkFlows' allocations on a paper-size uniform
// pattern: the count array, the flat lists, the shared all-flows list and
// the map's own storage, none per link.
func TestLinkFlowsAllocs(t *testing.T) {
	p := Uniform(topo.NewMesh(8), 0.3, 4, 256)
	if n := testing.AllocsPerRun(10, func() { _ = p.LinkFlows() }); n > 7 {
		t.Errorf("LinkFlows: %.0f allocations, want at most 7", n)
	}
}
