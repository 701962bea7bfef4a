package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// tinySizes run every workload through the same code path in a few seconds:
// short networks, the short suite, and a fault plan whose windows open early
// enough to fire.
var tinySizes = sizes{
	warmup: 200, light: 4000, sat: 1000, gsf: 1000, observed: 1000,
	plan: `
		link-down    node=7  dir=south from=300 to=500
		flit-loss    node=3  dir=east  rate=0.2 from=100 to=1200
		credit-stall node=15 dir=west  from=600 to=650
		router-stall node=9  from=700 to=720
		adversary    flow=1  factor=3 cap=1 from=250`,
	shortSuite: true, kernelCycles: 20000, sweepJobs: 100, lsfSlots: 4000,
	minReps: 1, suiteMin: 1,
}

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesCode holds BENCHMARK.json to the tables the program
// prints from.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	ws := workloads(paperSizes, 2)
	if len(m.Workloads) != len(ws) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(ws))
	}
	for i, w := range ws {
		name(w.name)
		mw := m.Workloads[i]
		if mw.Name != w.name {
			t.Errorf("workload %d: manifest %q, program %q", i, mw.Name, w.name)
		}
		if mw.Why == "" || len(mw.Why) > 200 || strings.Contains(mw.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, len(mw.Why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\nmanifest %+v\nprogram  %+v", m.EndToEnd, endToEnd)
	}
	hasSetup := false
	for _, d := range endToEnd {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v", d.Name, d.Bound)
		}
		if d.Name == "setup_s" {
			hasSetup = d.Unit == "s" && d.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > d.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in s, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("manifest has %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		name(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("%s: unit %q", d.Name, d.Unit)
		}
		if p := m.PerLayer[i]; p.Name != d.Name || p.Unit != d.Unit || p.Better != d.Better {
			t.Errorf("per_layer %d: manifest %+v, program %+v", i, p, d)
		}
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", m.Paths, m.RunSeconds)
	}
}

// resultLines parses every result line a run printed.
func resultLines(t *testing.T, out string) []resultLine {
	t.Helper()
	var lines []resultLine
	for _, l := range strings.Split(out, "\n") {
		if !strings.HasPrefix(l, "{") {
			continue
		}
		var r resultLine
		if err := json.Unmarshal([]byte(l), &r); err != nil {
			t.Fatalf("%v in %s", err, l)
		}
		lines = append(lines, r)
	}
	return lines
}

func checkLine(t *testing.T, r resultLine, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", r.Correct, r.Attempted, r.Failed)
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics printed, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := r.Metrics[d.Name]; !ok || v.Unit != d.Unit {
			t.Errorf("%s: printed %+v, declared unit %q", d.Name, v, d.Unit)
		}
	}
}

// inTemp runs the test from an empty directory, where the traced run may
// leave bench/out.
func inTemp(t *testing.T) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	})
}

// TestEveryWorkloadUntraced runs the five workloads at tiny sizes, checks the
// result lines against the declared end-to-end metrics, and compares the
// results file with itself.
func TestEveryWorkloadUntraced(t *testing.T) {
	inTemp(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--seconds", "0", "--out", "a.json"}, &stdout, &stderr, tinySizes); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := resultLines(t, stdout.String())
	if len(lines) != 5 {
		t.Fatalf("%d result lines, want 5\n%s", len(lines), stdout.String())
	}
	for _, r := range lines {
		checkLine(t, r, endToEnd)
		for name, v := range r.Metrics {
			if v.Value <= 0 {
				t.Errorf("%s = %v, end-to-end metrics are never 0", name, v.Value)
			}
		}
	}

	stdout.Reset()
	if code := compareFiles("a.json", "a.json", &stdout, &stderr); code != 0 {
		t.Fatalf("a file compared with itself: exit %d\n%s", code, stdout.String())
	}
	if n := strings.Count(stdout.String(), unchanged); n != 5*len(endToEnd) {
		t.Errorf("%d rows unchanged, want %d\n%s", n, 5*len(endToEnd), stdout.String())
	}
	if n := strings.Count(stdout.String(), "sim_digest equal"); n != 5 {
		t.Errorf("%d digests equal, want 5", n)
	}

	// The same file with every wall_s half again as long regresses.
	a, err := readResults("a.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range a.Workloads {
		m := o.Metrics["wall_s"]
		m.Median, m.Q1, m.Q3 = 1.5*m.Median, 1.5*m.Q1, 1.5*m.Q3
		for i := range m.Values {
			m.Values[i] *= 1.5
		}
		o.Metrics["wall_s"] = m
	}
	if err := writeJSON("b.json", a); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := compareFiles("a.json", "b.json", &stdout, &stderr); code != 1 {
		t.Errorf("slower wall_s: exit %d, want 1", code)
	}
	if n := strings.Count(stdout.String(), regressed); n != 5 {
		t.Errorf("%d rows regressed, want 5\n%s", n, stdout.String())
	}
}

// TestEveryWorkloadTraced runs the traced run at tiny sizes and checks the
// result lines, the spans and the per-layer table it leaves behind.
func TestEveryWorkloadTraced(t *testing.T) {
	inTemp(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--trace", "1"}, &stdout, &stderr, tinySizes); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := resultLines(t, stdout.String())
	if len(lines) != 5 {
		t.Fatalf("%d result lines, want 5", len(lines))
	}
	for _, r := range lines {
		checkLine(t, r, perLayer)
	}

	var tr struct{ Spans []span }
	readJSON(t, filepath.Join(outDir, "trace.json"), &tr)
	if len(tr.Spans) == 0 {
		t.Fatal("no spans")
	}
	chunkEnd := map[int]int64{} // measure span -> end of its last chunk
	chunkSum := map[int]int64{}
	for i, s := range tr.Spans {
		if s.ID != i || s.EndNS < s.StartNS || s.Workload == "" || s.Rep < 1 {
			t.Fatalf("span %d malformed: %+v", i, s)
		}
		if s.Parent == -1 {
			if s.Name != "rep" && !strings.Contains(s.Name, ".") {
				t.Errorf("root span %+v is neither a rep nor a layer driver", s)
			}
			continue
		}
		if s.Parent < 0 || s.Parent >= i {
			t.Fatalf("span %d: parent %d does not precede it", i, s.Parent)
		}
		p := tr.Spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Workload != p.Workload || s.Rep != p.Rep {
			t.Errorf("span %+v is not inside its parent %+v", s, p)
		}
		if s.Name == "run.chunk" {
			if p.Name != "measure" {
				t.Errorf("chunk %+v under %q", s, p.Name)
			}
			if s.StartNS < chunkEnd[s.Parent] {
				t.Errorf("chunk %+v overlaps the one before it", s)
			}
			chunkEnd[s.Parent] = s.EndNS
			chunkSum[s.Parent] += s.EndNS - s.StartNS
		}
	}
	if len(chunkSum) == 0 {
		t.Error("no chunk spans")
	}
	for id, sum := range chunkSum {
		// Chunks tile the measured phase: what they leave uncovered is the
		// loop around them.
		if m := tr.Spans[id]; float64(sum) < 0.95*float64(m.EndNS-m.StartNS) {
			t.Errorf("chunks cover %d ns of measure span %+v", sum, m)
		}
	}

	var layers struct {
		Workloads []struct {
			Workload string
			Metrics  layerSet
			Spans    []spanTotal
		}
	}
	readJSON(t, filepath.Join(outDir, "layers.json"), &layers)
	if len(layers.Workloads) != 5 {
		t.Fatalf("layers.json holds %d workloads", len(layers.Workloads))
	}
	measured := map[string]bool{}
	for _, w := range layers.Workloads {
		for _, d := range perLayer {
			v, ok := w.Metrics[d.Name]
			switch {
			case !ok || v.Unit != d.Unit:
				t.Errorf("%s %s: %+v", w.Workload, d.Name, v)
			case v.Measured:
				measured[d.Name] = true
			case v.Reason == "":
				t.Errorf("%s %s: not measured and no reason", w.Workload, d.Name)
			}
		}
		for _, s := range w.Spans {
			if s.SelfMS < 0 || s.SelfMS > s.TotalMS+1e-9 {
				t.Errorf("%s span %s: self %v of total %v", w.Workload, s.Name, s.SelfMS, s.TotalMS)
			}
		}
	}
	// Some workload must measure every metric, bar the three experiments the
	// short suite leaves out and, on one CPU, the parallel ones.
	exempt := map[string]bool{"exp.fig11b_s": true, "exp.fig12_s": true, "exp.fig13_s": true}
	if poolWorkers() < 2 {
		for _, n := range []string{"sim.parallel_ns_per_cycle", "sim.parallel_workers", "sim.parallel_speedup", "sim.barrier_wait_pct", "sim.worker_imbalance", "sweep.speedup", "sweep.pool_efficiency"} {
			exempt[n] = true
		}
	}
	for _, d := range perLayer {
		if !measured[d.Name] && !exempt[d.Name] {
			t.Errorf("%s: no workload measures it", d.Name)
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

// TestFailingRepIsCounted gives measure a rep that fails, one that panics and
// one that changes its digest: each is counted and none aborts the run.
func TestFailingRepIsCounted(t *testing.T) {
	good := func(digest string) (repResult, error) {
		e2e := map[string]float64{}
		for _, d := range endToEnd {
			e2e[d.Name] = 1
		}
		return repResult{e2e: e2e, digest: digest, cycles: 1}, nil
	}
	n := 0
	w := workload{name: "fake", minReps: 5, rep: func(*runCtx) (repResult, error) {
		n++
		switch n {
		case 2:
			return repResult{}, fmt.Errorf("deliberate failure")
		case 4:
			panic("deliberate panic")
		case 5:
			return good("other")
		}
		return good("same")
	}}
	o := measure(&runCtx{}, w, 0)
	if o.Attempted != 5 || o.Failed != 3 || o.Reps != 2 {
		t.Fatalf("attempted %d, failed %d, reps %d; want 5, 3, 2: %v", o.Attempted, o.Failed, o.Reps, o.Failures)
	}
	var buf bytes.Buffer
	if err := o.report(&buf); err != nil {
		t.Fatal(err)
	}
	lines := resultLines(t, buf.String())
	if len(lines) != 1 || lines[0].Correct || lines[0].Failed != 3 || lines[0].Attempted != 5 {
		t.Errorf("result line %+v", lines)
	}
	if code := run([]string{"--workload", "nope"}, io.Discard, io.Discard, tinySizes); code == 0 {
		t.Error("unknown workload: exit 0")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{5}, 5, 5},
	} {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
	if v := verdict(metricRun{metricDef: metricDef{Better: "higher", Bound: 0.1}, Median: 100, Q1: 99, Q3: 101, Values: []float64{99, 100, 101}},
		metricRun{Median: 80, Q1: 79, Q3: 81, Values: []float64{79, 80, 81}}); v != regressed {
		t.Errorf("20%% slower: %s", v)
	}
	if v := verdict(metricRun{metricDef: metricDef{Better: "higher", Bound: 0.1}, Median: 100, Q1: 80, Q3: 120, Values: []float64{80, 100, 120}},
		metricRun{Median: 85, Q1: 70, Q3: 100, Values: []float64{70, 85, 100}}); v != unresolved {
		t.Errorf("15%% slower inside a 40%% spread: %s", v)
	}
}
