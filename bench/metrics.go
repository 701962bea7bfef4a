package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json carries the same table;
// bench_test.go holds the two to each other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound"`  // end-to-end only: share of the median it may worsen
}

// endToEnd are the metrics a loftsim/loftexp user sees, measured with
// tracing off and reported on every workload as the median over reps.
//
// The host-time bounds are the widest the benchmark contract allows: on the
// shared 2-core recording host two back-to-back 20 s runs differ by up to 21%
// and ten-run sets spread by up to 17% (README.md, "Noise"). The simulated
// metrics move only with the seed.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"sim_cycles_per_s", "cycles/s", "higher", 0.25},
	{"host_us_per_flit", "us", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.08},
	{"allocs_per_kcycle", "mallocs/kcycle", "lower", 0.05},
	{"accepted_flits_per_cycle_node", "flits/cycle/node", "higher", 0.05},
	{"avg_latency_cycles", "cycles", "lower", 0.15},
}

// loftStages and gsfStages are the perfmon stages each architecture records.
var (
	loftStages = []string{"drain", "frame", "switch", "booking", "lookahead", "flush", "commit"}
	gsfStages  = []string{"drain", "vcalloc", "switch", "booking", "flush", "gsf-frame", "commit"}
)

// perLayer are the metrics of single layers, reported by the traced run.
// A metric the workload does not exercise reads 0 on the result line and is
// marked not measured, with the reason, in layers.json.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	add("%", "lower", "trace_overhead_pct")
	add("ratio", "higher", "observed_speed_ratio")
	add("%", "lower", "paper_error_pct")

	add("ns", "lower", "sim.kernel_ns_per_cycle", "sim.parallel_ns_per_cycle")
	add("count", "higher", "sim.parallel_workers")
	add("ratio", "higher", "sim.parallel_speedup")
	add("%", "lower", "sim.barrier_wait_pct")
	add("ratio", "lower", "sim.worker_imbalance")

	add("ms", "lower", "traffic.pattern_build_ms")
	add("ns", "lower", "traffic.next_ns_per_cycle")
	add("count", "higher", "traffic.packets_generated")

	add("ns", "lower", "lsf.tick_ns", "lsf.request_ns", "lsf.return_credit_ns")
	add("count", "lower", "lsf.requests")
	add("ratio", "higher", "lsf.booked_ratio")
	add("count", "lower", "lsf.throttled", "lsf.frame_skips", "lsf.cond_blocks", "lsf.resets")

	add("ms", "lower", "loft.new_ms", "loft.close_ms")
	add("ns", "lower", "loft.run_ns_per_cycle")
	add("ms", "lower", "loft.kcycle_ms_p50", "loft.kcycle_ms_p95")
	for _, s := range loftStages {
		add("ns", "lower", "loft.stage_ns."+s)
	}
	add("ratio", "higher", "loft.spec_forward_ratio")
	add("count", "higher", "loft.injected_quanta", "loft.ejected_flits")
	add("count", "lower", "loft.drops", "loft.late_arrivals", "loft.emergent_denied", "loft.backlog_flits")

	add("ms", "lower", "gsf.new_ms")
	add("ns", "lower", "gsf.run_ns_per_cycle")
	add("ms", "lower", "gsf.kcycle_ms_p50", "gsf.kcycle_ms_p95")
	for _, s := range gsfStages {
		add("ns", "lower", "gsf.stage_ns."+s)
	}
	add("count", "lower", "gsf.drops", "gsf.in_flight", "gsf.backlog_flits")

	add("ns", "lower", "stats.observe_ns_per_packet")
	add("ms", "lower", "stats.summarize_ms")
	add("cycles", "lower", "stats.p99_latency_cycles")
	add("ms", "lower", "core.run_overhead_ms")

	add("s", "lower", "exp.fig10_s", "exp.fig11b_s", "exp.fig12_s", "exp.fig13_s", "exp.bounds_s")
	add("count", "higher", "exp.cells")
	add("ratio", "lower", "exp.bound_ratio")

	add("us", "lower", "sweep.dispatch_us_per_job")
	add("ratio", "higher", "sweep.speedup", "sweep.pool_efficiency")
	add("s", "lower", "sweep.cpu_s")

	add("ratio", "higher", "audit.speed_ratio", "probe.speed_ratio", "fault.speed_ratio", "perfmon.speed_ratio")
	add("count", "lower", "audit.violations")
	add("count", "higher", "probe.events")
	add("ms", "lower", "probe.export_ms")
	add("count", "higher", "fault.injected", "fault.retries", "fault.flits_lost")
	return out
}

// median returns the middle of vs (mean of the two middles when even).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vs, n=4) gives them; with fewer than two values both
// are the median.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n < 2 {
		m := median(vs)
		return m, m
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0, 4] where the quartile extrapolates
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile returns the p-th percentile (nearest rank) of vs.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[min(max(idx, 0), len(s)-1)]
}

// layerValue is one per-layer metric as layers.json holds it: a value, or
// the reason it was not measured in this run.
type layerValue struct {
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Measured bool    `json:"measured"`
	Reason   string  `json:"reason,omitempty"`
}

// layerSet collects per-layer values by name during a traced run.
type layerSet map[string]layerValue

func (ls layerSet) set(name string, v float64) {
	ls[name] = layerValue{Value: v, Measured: true}
}

func (ls layerSet) skip(reason string, names ...string) {
	for _, n := range names {
		ls[n] = layerValue{Reason: reason}
	}
}

// notExercised starts the reason of a metric the workload has no business
// with; the printed table leaves those rows out.
const notExercised = "not exercised by "

// complete gives every per-layer metric an entry and a unit, and rejects a
// value under a name the benchmark does not declare.
func (ls layerSet) complete(workload string) error {
	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
		v, ok := ls[d.Name]
		if !ok {
			v = layerValue{Reason: notExercised + workload}
		}
		v.Unit = d.Unit
		ls[d.Name] = v
	}
	for name := range ls {
		if !declared[name] {
			return fmt.Errorf("per-layer metric %q is not declared", name)
		}
	}
	return nil
}
