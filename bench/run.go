package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"loft/internal/core"
	"loft/internal/runenv"
)

// sizes are the cycle counts of the steady-state workloads. They are tuned so
// that a rep takes 1.5 to 3 s on the 2-core recording host and seven or more
// reps fit in the benchmark's run length; bench_test.go shrinks them.
type sizes struct {
	warmup                    uint64 // untimed cycles before every measured phase
	light, sat, gsf, observed uint64 // measured cycles per rep
	plan                      string // loft_observed's fault plan
	shortSuite                bool   // suite_quick runs only Fig. 10 and the delay bounds

	// Iterations of the stand-alone layer drivers.
	kernelCycles, sweepJobs, lsfSlots int
	// Fewest reps of a steady-state workload and of the suite.
	minReps, suiteMin int
}

var paperSizes = sizes{
	warmup: 5000, light: 60000, sat: 8000, gsf: 12000, observed: 10000, plan: chaosPlan,
	kernelCycles: 2_000_000, sweepJobs: 10000, lsfSlots: 400000,
	minReps: 3, suiteMin: 2,
}

// runCtx is what every rep of one process shares.
type runCtx struct {
	seed    uint64
	workers int // min(GOMAXPROCS, 4): the most goroutines that ever do work at once
	tr      *tracer
	replays map[string]generated
}

// workload is one named set of inputs.
type workload struct {
	name    string
	minReps int
	rep     func(c *runCtx) (repResult, error)
	// layers does the traced run's extra work for this workload: the
	// stand-alone layer drivers and the paired reps. ref is an untraced rep,
	// traced the rep recorded with spans and the profiler attached.
	layers func(c *runCtx, ref, traced repResult, ls layerSet) error
	// traced is the workload as the traced rep runs it (profiler attached).
	traced func(c *runCtx) (repResult, error)
}

func poolWorkers() int {
	if n := runtime.GOMAXPROCS(0); n < 4 {
		return n
	}
	return 4
}

// workloads lists the five workloads; BENCHMARK.json and README.md say why
// each is here.
func workloads(sz sizes, workers int) []workload {
	mk := func(name string, w steady) workload {
		withPerf := w
		withPerf.obs.perf = true
		return workload{name: name, minReps: sz.minReps, rep: w.rep, traced: withPerf.rep,
			layers: func(c *runCtx, ref, traced repResult, ls layerSet) error {
				return w.layers(c, sz, ref, traced, ls)
			}}
	}
	s := suite{short: sz.shortSuite, workers: workers}
	return []workload{
		// Routers idle most cycles: host time is the per-cycle floor.
		mk("loft_light", steady{arch: core.ArchLOFT, rate: 0.05, warmup: sz.warmup, measure: sz.light, lossless: true}),
		// Past saturation: booking, look-ahead, switch and NI backlog dominate.
		mk("loft_sat", steady{arch: core.ArchLOFT, rate: 0.6, warmup: sz.warmup, measure: sz.sat, parallel: true}),
		// Bypasses lsf and loft, shares sim, traffic, stats, buffers and arb.
		mk("gsf_sat", steady{arch: core.ArchGSF, rate: 0.6, warmup: sz.warmup, measure: sz.gsf}),
		// The observer seams do most of the extra work here, none elsewhere.
		mk("loft_observed", steady{arch: core.ArchLOFT, rate: 0.2, warmup: sz.warmup, measure: sz.observed, obs: allObservers, plan: sz.plan}),
		// Many short runs through exp, sweep and core.
		{name: "suite_quick", minReps: sz.suiteMin, rep: s.rep, traced: s.rep,
			layers: func(c *runCtx, ref, traced repResult, ls layerSet) error { return s.layers(c, sz, ref, traced, ls) }},
	}
}

// outcome is one workload's measured reps.
type outcome struct {
	Name      string               `json:"name"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Failures  []string             `json:"failures,omitempty"`
	Reps      int                  `json:"reps"`
	Cycles    uint64               `json:"measured_cycles_per_rep"`
	SimDigest string               `json:"sim_digest"`
	Metrics   map[string]metricRun `json:"metrics"`
}

// metricRun is one end-to-end metric over the reps of a run.
type metricRun struct {
	metricDef
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

// safeRep runs one rep under a root span and turns a panic into a failure.
func safeRep(c *runCtx, rep func(*runCtx) (repResult, error)) (r repResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	c.tr.nextRep()
	c.tr.timed("rep", func() { r, err = rep(c) })
	if err != nil {
		return r, err
	}
	for _, d := range endToEnd {
		if v, ok := r.e2e[d.Name]; !ok || v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("%s = %v", d.Name, v)
		}
	}
	return r, nil
}

// maxFailures ends a run whose reps keep failing before its time is up.
const maxFailures = 3

// measure repeats the workload's rep for the given number of seconds, and at
// least minReps times. Every rep uses the same seed, so reps time identical
// work and must produce the same sim_digest; one that fails or differs is
// counted, not fatal.
func measure(c *runCtx, w workload, seconds float64) outcome {
	out := outcome{Name: w.name, Metrics: map[string]metricRun{}}
	values := map[string][]float64{}
	var took []float64
	start := time.Now()
	for out.Failed < maxFailures {
		if out.Attempted >= w.minReps && time.Since(start).Seconds()+median(took) > seconds {
			break
		}
		t := time.Now()
		r, err := safeRep(c, w.rep)
		took = append(took, time.Since(t).Seconds())
		out.Attempted++
		if err == nil && out.SimDigest != "" && r.digest != out.SimDigest {
			err = fmt.Errorf("sim_digest %.12s differs from the first rep's %.12s", r.digest, out.SimDigest)
		}
		if err != nil {
			out.Failed++
			out.Failures = append(out.Failures, err.Error())
			continue
		}
		out.SimDigest, out.Cycles = r.digest, r.cycles
		out.Reps++
		for _, d := range endToEnd {
			values[d.Name] = append(values[d.Name], r.e2e[d.Name])
		}
	}
	for _, d := range endToEnd {
		q1, q3 := quartiles(values[d.Name])
		out.Metrics[d.Name] = metricRun{metricDef: d, Median: median(values[d.Name]), Q1: q1, Q3: q3, Values: values[d.Name]}
	}
	return out
}

// host is the block that sits next to the numbers in every results file.
type host struct {
	runenv.Info
	GoVersion    string `json:"go_version"`
	GOOS         string `json:"goos"`
	GOARCH       string `json:"goarch"`
	LoadAvgStart string `json:"loadavg_start,omitempty"`
	LoadAvgEnd   string `json:"loadavg_end,omitempty"`
}

func captureHost() host {
	return host{Info: runenv.Capture(), GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, LoadAvgStart: loadAvg()}
}

// loadAvg reads /proc/loadavg; empty where it cannot be read.
func loadAvg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	sec := func(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }
	return sec(ru.Utime) + sec(ru.Stime)
}

// results is the file -out writes and -compare reads.
type results struct {
	Host      host      `json:"host"`
	Seed      uint64    `json:"seed"`
	Seconds   float64   `json:"seconds"`
	Traced    bool      `json:"traced"`
	Workloads []outcome `json:"workloads"`
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printLine(w io.Writer, l resultLine) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// report prints one workload's end-to-end metrics by name, with unit, rep
// count and quartiles, then the result line.
func (o outcome) report(w io.Writer) error {
	fmt.Fprintf(w, "%s: %d reps of %d measured cycles, %d attempted, %d failed, sim_digest %.16s\n", o.Name, o.Reps, o.Cycles, o.Attempted, o.Failed, o.SimDigest)
	for _, f := range o.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	line := resultLine{Correct: o.Failed == 0 && o.Reps > 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, d := range endToEnd {
		m := o.Metrics[d.Name]
		fmt.Fprintf(w, "  %-30s %14.6g %-16s (q1 %.6g, q3 %.6g, n=%d, %s is better, bound %g%%)\n", d.Name, m.Median, d.Unit, m.Q1, m.Q3, len(m.Values), d.Better, 100*d.Bound)
		line.Metrics[d.Name] = metricValue{m.Median, d.Unit}
	}
	return printLine(w, line)
}
