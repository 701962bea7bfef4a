package loft

import (
	"testing"
	"testing/quick"

	"loft/internal/flit"
	"loft/internal/topo"
	"loft/internal/traffic"
)

// TestQuickRandomPatternsConserve runs randomized small workloads through
// the full LOFT network and checks the global protocol invariants:
// everything injected is ejected exactly once after draining, no strict-mode
// panic fires (Theorem I), and per-packet reassembly completes.
func TestQuickRandomPatternsConserve(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized network property test")
	}
	check := func(seed uint64, nFlows uint8, rateSel uint8, spec uint8) bool {
		cfg := smallCfg(int(spec%3) * 4) // 0, 4, 8
		mesh := cfg.Mesh()
		rate := []float64{0.05, 0.15, 0.3}[int(rateSel)%3]

		// Random flow set with equal reservations; cap contention so the
		// admission constraint holds by construction.
		flows := int(nFlows%4) + 1
		p := &traffic.Pattern{
			Name:        "random",
			Mesh:        mesh,
			Gens:        make(map[topo.NodeID][]traffic.Gen),
			PacketFlits: cfg.PacketFlits,
		}
		rng := newDetRng(seed)
		for i := 0; i < flows; i++ {
			src := topo.NodeID(rng.next() % uint64(mesh.N()))
			dst := src
			for dst == src {
				dst = topo.NodeID(rng.next() % uint64(mesh.N()))
			}
			id := flit.FlowID(i)
			p.Flows = append(p.Flows, flit.Flow{ID: id, Src: src, Dst: dst, Reservation: cfg.FrameFlits / 8})
			p.Gens[src] = append(p.Gens[src], traffic.Gen{Flow: id, Rate: rate, Dst: dst})
		}
		if p.Validate(cfg.FrameFlits, cfg.QuantumFlits) != nil {
			return true // oversubscribed random draw: skip
		}
		net, err := New(cfg, p, Options{Seed: seed, Warmup: 0})
		if err != nil {
			t.Logf("build: %v", err)
			return false
		}
		net.Run(3000)
		p.SetRate(0)
		net.Run(4000)
		s := net.TotalStats()
		if s.InjectedQuanta != s.EjectedQuanta {
			t.Logf("seed %d: injected %d != ejected %d", seed, s.InjectedQuanta, s.EjectedQuanta)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// detRng is a tiny deterministic generator for test-pattern construction
// (kept separate from sim.RNG so pattern draws don't depend on it).
type detRng struct{ s uint64 }

func newDetRng(seed uint64) *detRng { return &detRng{s: seed*2654435761 + 1} }

func (r *detRng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}
