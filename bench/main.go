// Command bench is the repository's benchmark: five named workloads, the
// end-to-end metrics a loftsim/loftexp user sees, and a traced run that
// attributes host time to the repository's layers. README.md is the glossary.
//
//	bash bench/run.sh --workload loft_sat --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh --trace 1                  # every workload, per-layer metrics
//	bash bench/run.sh --out A.json               # every workload, results file
//	bash bench/run.sh --compare A.json B.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// outDir is where the traced run leaves trace.json and layers.json, relative
// to the repository root.
const outDir = "bench/out"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, paperSizes)) }

func run(args []string, stdout, stderr io.Writer, sz sizes) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all")
	seed := fs.Uint64("seed", 1, "seed of every traffic generator")
	seconds := fs.Float64("seconds", 20, "how long one workload measures")
	trace := fs.Int("trace", 0, "1 records spans and prints the per-layer metrics in place of the end-to-end ones")
	out := fs.String("out", "", "write the results file -compare reads")
	cmp := fs.Bool("compare", false, "compare two results files: --compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *cmp {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: --compare takes two results files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	c := &runCtx{seed: *seed, workers: poolWorkers(), replays: map[string]generated{}}
	var selected []workload
	for _, w := range workloads(sz, c.workers) {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}

	res := results{Host: captureHost(), Seed: *seed, Seconds: *seconds, Traced: *trace == 1}
	fmt.Fprintf(stdout, "host: %d CPUs, GOMAXPROCS %d, %s %s/%s, revision %.12s, load %s; seed %d\n",
		res.Host.NumCPU, res.Host.GoMaxProcs, res.Host.GoVersion, res.Host.GOOS, res.Host.GOARCH, res.Host.GitRevision, res.Host.LoadAvgStart, *seed)
	ok := true
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	layers := map[string]layerSet{}
	for _, w := range selected {
		var o outcome
		if *trace == 1 {
			ls, to, err := traceWorkload(c, tr, w)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			o = to
			layers[w.name] = ls
			if err := reportLayers(stdout, o, ls); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		} else {
			o = measure(c, w, *seconds)
			if err := o.report(stdout); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		ok = ok && o.Failed == 0
		res.Workloads = append(res.Workloads, o)
	}
	res.Host.LoadAvgEnd = loadAvg()

	if *trace == 1 {
		if err := writeTrace(tr.spans, layers, res.Host); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	if !ok {
		return 1
	}
	return 0
}

// reportLayers prints one workload's per-layer metrics by name, with unit,
// then the result line.
func reportLayers(w io.Writer, o outcome, ls layerSet) error {
	fmt.Fprintf(w, "%s (traced): %d attempted, %d failed, sim_digest %.16s\n", o.Name, o.Attempted, o.Failed, o.SimDigest)
	for _, f := range o.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	line := resultLine{Correct: o.Failed == 0, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, d := range perLayer {
		v := ls[d.Name]
		line.Metrics[d.Name] = metricValue{v.Value, d.Unit}
		switch {
		case v.Measured:
			fmt.Fprintf(w, "  %-30s %14.6g %s\n", d.Name, v.Value, d.Unit)
		case !strings.HasPrefix(v.Reason, notExercised):
			fmt.Fprintf(w, "  %-30s   not measured: %s\n", d.Name, v.Reason)
		}
	}
	for _, s := range shares(ls) {
		fmt.Fprintf(w, "  share: %s\n", s)
	}
	return printLine(w, line)
}

// shares sizes a claim before it is made: a faster layer saves at most its
// share of the cycle. Stage times carry the profiler's own clock reads, so
// each is set against the sum of the stages, not against the run; the
// stand-alone traffic and kernel drivers are set against the run's time per
// cycle.
func shares(ls layerSet) []string {
	var out []string
	for _, a := range []struct {
		arch   string
		stages []string
	}{{"loft", loftStages}, {"gsf", gsfStages}} {
		run := ls[a.arch+".run_ns_per_cycle"]
		if !run.Measured {
			continue
		}
		var sum float64
		for _, s := range a.stages {
			sum += ls[a.arch+".stage_ns."+s].Value
		}
		for _, s := range a.stages {
			if v := ls[a.arch+".stage_ns."+s]; v.Measured {
				out = append(out, fmt.Sprintf("%s.stage_ns.%s is %.1f%% of the profiled stages", a.arch, s, 100*v.Value/sum))
			}
		}
		for _, n := range []string{"traffic.next_ns_per_cycle", "sim.kernel_ns_per_cycle"} {
			if v := ls[n]; v.Measured {
				out = append(out, fmt.Sprintf("%s is %.1f%% of %s.run_ns_per_cycle", n, 100*v.Value/run.Value, a.arch))
			}
		}
	}
	return out
}

// writeTrace writes the spans and the per-layer table of a traced run.
func writeTrace(spans []span, layers map[string]layerSet, h host) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, "trace.json"), map[string]any{"host": h, "spans": spans}); err != nil {
		return err
	}
	type workloadLayers struct {
		Workload string      `json:"workload"`
		Metrics  layerSet    `json:"metrics"`
		Spans    []spanTotal `json:"spans"`
	}
	var doc []workloadLayers
	for name, ls := range layers {
		doc = append(doc, workloadLayers{name, ls, selfTimes(spans, name)})
	}
	sort.Slice(doc, func(i, j int) bool { return doc[i].Workload < doc[j].Workload })
	return writeJSON(filepath.Join(outDir, "layers.json"), map[string]any{"host": h, "workloads": doc})
}
