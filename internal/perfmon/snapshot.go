package perfmon

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// SnapshotSchema versions perf.json. Bump on breaking changes to Snapshot.
const SnapshotSchema = 1

// Host is the host-parallelism context a profile was collected under —
// without it a shard-utilization report from a 1-CPU container reads like a
// scheduling bug instead of a hardware limit.
type Host struct {
	NumCPU     int `json:"num_cpu"`
	GoMaxProcs int `json:"gomaxprocs"`
	// Workers is the effective node-worker count (the network's Workers
	// option, capped at one per node); 0 = sequential.
	Workers int `json:"workers,omitempty"`
}

// StageStat is one pipeline stage's aggregated attribution across all
// owners (all nodes plus the serial-commit timer).
type StageStat struct {
	Name  string `json:"name"`
	Nanos uint64 `json:"nanos"`
	Count uint64 `json:"count"`
}

// WorkerStat is one parallel-engine worker's busy time in the tick phase.
type WorkerStat struct {
	Worker    int    `json:"worker"`
	TickNanos uint64 `json:"tick_nanos"`
	Phases    uint64 `json:"phases"`
}

// EngineStat is the ParallelKernel telemetry: coordinator wall time per
// phase and per-worker busy time. Barrier wait for worker w is
// TickWallNanos - w.TickNanos.
type EngineStat struct {
	Workers         int          `json:"workers"`
	SampledCycles   uint64       `json:"sampled_cycles"`
	TickWallNanos   uint64       `json:"tick_wall_nanos"`
	SerialWallNanos uint64       `json:"serial_wall_nanos"`
	PerWorker       []WorkerStat `json:"per_worker"`
}

// GaugeStat is one gauge's statistics over the sampled cycles.
type GaugeStat struct {
	Name    string  `json:"name"`
	Avg     float64 `json:"avg"`
	Max     float64 `json:"max"`
	Samples uint64  `json:"samples"`
}

// Snapshot is the exportable profile: what perf.json holds, what the -perf
// stage table prints, and what `lofttrace perf` renders. Field order is
// fixed and maps are avoided so the JSON encoding is deterministic given
// the same measurements.
type Snapshot struct {
	Schema        int         `json:"schema"`
	SampleEvery   uint64      `json:"sample_every"`
	Cycles        uint64      `json:"cycles"`
	SampledCycles uint64      `json:"sampled_cycles"`
	WallNanos     int64       `json:"wall_nanos"`
	Host          Host        `json:"host"`
	Stages        []StageStat `json:"stages"`
	Engine        *EngineStat `json:"engine,omitempty"`
	Gauges        []GaugeStat `json:"gauges,omitempty"`
}

// Snapshot aggregates every timer into an exportable profile. Safe to call
// mid-run only from the coordinator (serial hook or between Run calls):
// worker-slot reads are ordered by the kernel's wg.Wait barrier.
func (m *Monitor) Snapshot() *Snapshot {
	if m == nil {
		return nil
	}
	s := &Snapshot{
		Schema:        SnapshotSchema,
		SampleEvery:   m.every,
		Cycles:        m.cycles,
		SampledCycles: m.sampled,
		Host:          hostInfo(m.workers),
	}
	if m.started {
		s.WallNanos = m.last - m.first
	}
	var nanos, count [numStages]uint64
	for _, t := range m.timers {
		for i := Stage(0); i < numStages; i++ {
			nanos[i] += t.nanos[i]
			count[i] += t.count[i]
		}
	}
	for i := Stage(0); i < numStages; i++ {
		if count[i] == 0 {
			continue
		}
		s.Stages = append(s.Stages, StageStat{Name: i.Name(), Nanos: nanos[i], Count: count[i]})
	}
	if e := m.engine; e != nil && e.cycles > 0 {
		es := &EngineStat{
			Workers:         len(e.workers),
			SampledCycles:   e.cycles,
			TickWallNanos:   e.wall[PhaseTick],
			SerialWallNanos: e.wall[PhaseSerial],
		}
		for i := range e.workers {
			w := &e.workers[i]
			es.PerWorker = append(es.PerWorker, WorkerStat{Worker: i, TickNanos: w.busy, Phases: w.n})
		}
		s.Engine = es
	}
	for i := range m.gauges {
		g := &m.gauges[i]
		if g.n == 0 {
			continue
		}
		s.Gauges = append(s.Gauges, GaugeStat{Name: g.name, Avg: g.sum / float64(g.n), Max: g.max, Samples: g.n})
	}
	return s
}

// StageTotalNanos returns the summed attribution across all stages.
func (s *Snapshot) StageTotalNanos() uint64 {
	var total uint64
	for _, st := range s.Stages {
		total += st.Nanos
	}
	return total
}

// Metrics flattens the snapshot into the manifest metric map, so perf
// profiles ride the existing direction-aware differ. Share metrics are
// percentages of the sampled stage total; "wait", "imbalance" and "util"
// in the names pick up the differ's directions.
func (s *Snapshot) Metrics() map[string]float64 {
	if s == nil {
		return nil
	}
	mm := map[string]float64{
		"perf sampled cycles": float64(s.SampledCycles),
	}
	total := s.StageTotalNanos()
	if s.SampledCycles > 0 {
		mm["perf stage ns/cycle"] = float64(total) / float64(s.SampledCycles)
	}
	for _, st := range s.Stages {
		if total > 0 {
			mm["perf stage share % "+st.Name] = 100 * float64(st.Nanos) / float64(total)
		}
	}
	if e := s.Engine; e != nil && e.SampledCycles > 0 {
		wall := e.TickWallNanos
		var maxBusy, sumBusy uint64
		for _, w := range e.PerWorker {
			busy := w.TickNanos
			sumBusy += busy
			if busy > maxBusy {
				maxBusy = busy
			}
		}
		if len(e.PerWorker) > 0 && sumBusy > 0 {
			mean := float64(sumBusy) / float64(len(e.PerWorker))
			mm["perf worker imbalance"] = float64(maxBusy) / mean
		}
		if wall > 0 {
			util := 100 * float64(sumBusy) / (float64(wall) * float64(len(e.PerWorker)))
			mm["perf worker util %"] = util
			mm["perf barrier wait %"] = 100 - util
		}
		mm["perf serial ns/cycle"] = float64(e.SerialWallNanos) / float64(e.SampledCycles)
	}
	return mm
}

// WriteFolded emits the profile as folded stacks — `frame;frame weight`
// lines, the format flamegraph.pl, speedscope and inferno all consume.
// Weights are nanoseconds over the sampled cycles.
func (s *Snapshot) WriteFolded(w io.Writer) error {
	for _, st := range s.Stages {
		if st.Nanos == 0 {
			continue
		}
		if _, err := fmt.Fprintf(w, "sim;node;%s %d\n", st.Name, st.Nanos); err != nil {
			return err
		}
	}
	e := s.Engine
	if e == nil {
		return nil
	}
	for _, ws := range e.PerWorker {
		if err := foldWorker(w, ws.Worker, ws.TickNanos, e.TickWallNanos); err != nil {
			return err
		}
	}
	if e.SerialWallNanos > 0 {
		if _, err := fmt.Fprintf(w, "sim;engine;serial %d\n", e.SerialWallNanos); err != nil {
			return err
		}
	}
	return nil
}

func foldWorker(w io.Writer, worker int, busy, wall uint64) error {
	if busy > 0 {
		if _, err := fmt.Fprintf(w, "sim;engine;tick;w%d;busy %d\n", worker, busy); err != nil {
			return err
		}
	}
	if wall > busy {
		if _, err := fmt.Fprintf(w, "sim;engine;tick;w%d;barrier-wait %d\n", worker, wall-busy); err != nil {
			return err
		}
	}
	return nil
}

// WriteText renders the human-readable attribution report: the per-stage
// wall-time table, the per-worker shard-utilization report and the gauge
// summary. Both `loftsim -perf` (no run directory) and `lofttrace perf`
// print through this, so the two surfaces cannot drift.
func (s *Snapshot) WriteText(w io.Writer) {
	fmt.Fprintf(w, "perfmon: %d cycles, %d sampled (every %d), observed wall %s\n",
		s.Cycles, s.SampledCycles, s.SampleEvery, fmtNanos(uint64(s.WallNanos)))
	fmt.Fprintf(w, "host: %d cpu, GOMAXPROCS %d, node workers %d\n",
		s.Host.NumCPU, s.Host.GoMaxProcs, s.Host.Workers)
	if len(s.Stages) > 0 {
		total := s.StageTotalNanos()
		fmt.Fprintf(w, "\nstage attribution (sampled cycles only):\n")
		fmt.Fprintf(w, "  %-11s %12s %7s %10s %10s\n", "STAGE", "TOTAL", "SHARE", "CALLS", "NS/CALL")
		stages := append([]StageStat(nil), s.Stages...)
		sort.SliceStable(stages, func(i, j int) bool { return stages[i].Nanos > stages[j].Nanos })
		for _, st := range stages {
			share := 0.0
			if total > 0 {
				share = 100 * float64(st.Nanos) / float64(total)
			}
			fmt.Fprintf(w, "  %-11s %12s %6.1f%% %10d %10.0f\n",
				st.Name, fmtNanos(st.Nanos), share, st.Count, float64(st.Nanos)/float64(st.Count))
		}
		fmt.Fprintf(w, "  %-11s %12s\n", "total", fmtNanos(total))
	}
	if e := s.Engine; e != nil {
		fmt.Fprintf(w, "\nengine: %d workers over %d sampled cycles\n", e.Workers, e.SampledCycles)
		fmt.Fprintf(w, "  phase wall: tick %s, serial %s\n",
			fmtNanos(e.TickWallNanos), fmtNanos(e.SerialWallNanos))
		wall := e.TickWallNanos
		fmt.Fprintf(w, "  %-7s %12s %7s %14s\n", "WORKER", "BUSY", "UTIL", "BARRIER-WAIT")
		var maxBusy, sumBusy uint64
		for _, ws := range e.PerWorker {
			busy := ws.TickNanos
			sumBusy += busy
			if busy > maxBusy {
				maxBusy = busy
			}
			util, wait := 0.0, uint64(0)
			if wall > 0 {
				util = 100 * float64(busy) / float64(wall)
			}
			if wall > busy {
				wait = wall - busy
			}
			fmt.Fprintf(w, "  w%-6d %12s %6.1f%% %14s\n", ws.Worker, fmtNanos(busy), util, fmtNanos(wait))
		}
		if len(e.PerWorker) > 0 && sumBusy > 0 {
			mean := float64(sumBusy) / float64(len(e.PerWorker))
			fmt.Fprintf(w, "  shard imbalance (max/mean busy): %.2f\n", float64(maxBusy)/mean)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "\ngauges (avg/max over %d samples):\n", s.SampledCycles)
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "  %-24s avg %10.2f  max %10.2f\n", g.Name, g.Avg, g.Max)
		}
	}
}

// fmtNanos renders a nanosecond quantity with an adaptive unit.
func fmtNanos(n uint64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fs", float64(n)/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fms", float64(n)/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.1fµs", float64(n)/1e3)
	default:
		return fmt.Sprintf("%dns", n)
	}
}

// ReadSnapshot loads a snapshot written as JSON (a run directory's
// perf.json).
func ReadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != SnapshotSchema {
		return nil, fmt.Errorf("%s: unsupported perf snapshot schema %d (want %d)", path, s.Schema, SnapshotSchema)
	}
	return &s, nil
}
