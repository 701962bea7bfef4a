package exp

import (
	"reflect"
	"testing"
)

// The sweep determinism contract: every simulation owns its RNGs, pattern
// state, and network, so a parallel sweep (-j 8) must reproduce the
// sequential runner (-j 1) exactly — not approximately. These goldens gate
// the parallel experiment engine; go test ./internal/sweep -race covers the
// pool itself.

// TestFig11SweepDeterminism compares a corner of the Fig. 11a grid — a light
// and a saturated load, speculation off and on, GSF beside them — which
// reaches every code path the full grid does; the full grid is loftexp's.
func TestFig11SweepDeterminism(t *testing.T) {
	if raceEnabled {
		// Twelve 8k-cycle runs, two of them saturated, are minutes under the
		// race detector; TestFig10SweepDeterminism exercises the same
		// shared-state surface there.
		t.Skip("skipped under -race; covered by TestFig10SweepDeterminism")
	}
	loads, specs := []float64{0.08, 0.56}, []int{0, 12}
	seq, err := fig11Grid("uniform", loads, specs, Options{Seed: 11, Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := fig11Grid("uniform", loads, specs, Options{Seed: 11, Quick: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Fig11 parallel run diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
	if len(seq.Points) != len(loads) || len(seq.Archs) != 1+len(specs) {
		t.Fatalf("grid shape %d loads x %d archs, want %d x %d", len(seq.Points), len(seq.Archs), len(loads), 1+len(specs))
	}
}

func TestFig10SweepDeterminism(t *testing.T) {
	seq, err := Fig10All(Options{Seed: 10, Quick: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Fig10All(Options{Seed: 10, Quick: true, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Fig10 parallel run diverged from sequential:\nseq: %+v\npar: %+v", seq, par)
	}
}
