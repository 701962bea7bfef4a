package perfmon

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestTimerAttributesSampledCyclesOnly(t *testing.T) {
	m := New(Config{SampleEvery: 4})
	tm := m.Timer()
	for now := uint64(0); now < 16; now++ {
		tm.Begin(now)
		tm.Lap(StageDrain)
		tm.Lap(StageBooking)
		m.OnCycle(now)
	}
	s := m.Snapshot()
	if s.Cycles != 16 || s.SampledCycles != 4 {
		t.Fatalf("cycles=%d sampled=%d, want 16,4", s.Cycles, s.SampledCycles)
	}
	byName := map[string]StageStat{}
	for _, st := range s.Stages {
		byName[st.Name] = st
	}
	for _, name := range []string{"drain", "booking"} {
		st, ok := byName[name]
		if !ok || st.Count != 4 {
			t.Fatalf("stage %s: %+v, want 4 laps (sampled cycles only)", name, st)
		}
	}
	if _, ok := byName["flush"]; ok {
		t.Fatal("untouched stage must not appear in the snapshot")
	}
}

func TestMonitorZeroAllocSteadyState(t *testing.T) {
	m := New(Config{SampleEvery: 2})
	backlog := 7
	m.Gauge("test.backlog", func() float64 { return float64(backlog) })
	tm := m.Timer()
	e := m.Engine(2)
	now := uint64(0)
	step := func() {
		e.CycleStart(now)
		start := e.WorkerStart()
		tm.Begin(now)
		tm.Lap(StageDrain)
		tm.Lap(StageSwitch)
		e.WorkerDone(0, start)
		e.PhaseDone(PhaseTick)
		e.PhaseDone(PhaseSerial)
		m.OnCycle(now)
		now++
	}
	step() // warm gauge bookkeeping
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("steady-state step allocates %v times, want 0", avg)
	}
}

func TestEngineTelemetryAndMetrics(t *testing.T) {
	m := New(Config{SampleEvery: 1})
	m.SetWorkers(2)
	e := m.Engine(2)
	for now := uint64(0); now < 8; now++ {
		e.CycleStart(now)
		for w := 0; w < 2; w++ {
			start := e.WorkerStart()
			e.WorkerDone(w, start)
		}
		e.PhaseDone(PhaseTick)
		e.PhaseDone(PhaseSerial)
		m.OnCycle(now)
	}
	s := m.Snapshot()
	if s.Engine == nil || s.Engine.Workers != 2 || s.Engine.SampledCycles != 8 {
		t.Fatalf("engine stat: %+v", s.Engine)
	}
	if len(s.Engine.PerWorker) != 2 {
		t.Fatalf("per-worker stats: %+v", s.Engine.PerWorker)
	}
	if s.Host.Workers != 2 || s.Host.NumCPU < 1 || s.Host.GoMaxProcs < 1 {
		t.Fatalf("host context: %+v", s.Host)
	}
	mm := s.Metrics()
	if mm["perf sampled cycles"] != 8 {
		t.Fatalf("metrics: %v", mm)
	}
	if _, ok := mm["perf worker imbalance"]; !ok {
		t.Fatalf("metrics missing imbalance: %v", mm)
	}
}

func TestSnapshotRoundTripAndRender(t *testing.T) {
	m := New(Config{SampleEvery: 1})
	m.SetWorkers(2)
	tm := m.Timer()
	e := m.Engine(2)
	for now := uint64(0); now < 4; now++ {
		e.CycleStart(now)
		start := e.WorkerStart()
		tm.Begin(now)
		tm.Lap(StageBooking)
		tm.Lap(StageLookahead)
		e.WorkerDone(0, start)
		e.PhaseDone(PhaseTick)
		e.PhaseDone(PhaseSerial)
		m.OnCycle(now)
	}
	s := m.Snapshot()

	dir := t.TempDir()
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "perf.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.SampledCycles != s.SampledCycles || len(got.Stages) != len(s.Stages) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, s)
	}

	var txt bytes.Buffer
	got.WriteText(&txt)
	for _, want := range []string{"stage attribution", "booking", "WORKER", "shard imbalance"} {
		if !strings.Contains(txt.String(), want) {
			t.Fatalf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var folded bytes.Buffer
	if err := got.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(folded.String()), "\n") {
		parts := strings.Split(line, " ")
		if len(parts) != 2 || !strings.Contains(parts[0], ";") {
			t.Fatalf("folded line %q is not `frames weight`", line)
		}
	}
	if !strings.Contains(folded.String(), "sim;node;booking ") {
		t.Fatalf("folded output missing booking frame:\n%s", folded.String())
	}
}

// TestDisabledMonitorIsInert pins the disabled state's contract: call sites
// hold possibly-nil handles and call them unguarded, so every method on a
// nil monitor, timer or engine timer must be a safe no-op.
func TestDisabledMonitorIsInert(t *testing.T) {
	var m *Monitor
	if m.Snapshot() != nil || m.Timer() != nil || m.Engine(4) != nil {
		t.Fatal("nil monitor must propagate nil handles")
	}
	m.SetWorkers(4)
	m.Gauge("x", func() float64 { return 0 })
	m.OnCycle(0)
	var tm *Timer
	tm.Begin(0)
	tm.Lap(StageDrain)
	var e *EngineTimer
	e.CycleStart(0)
	if start := e.WorkerStart(); start >= 0 {
		t.Fatalf("nil engine timer WorkerStart = %d, want a negative mark", start)
	}
	e.WorkerDone(0, 0)
	e.PhaseDone(PhaseTick)
	e.PhaseDone(PhaseSerial)
	var s *Snapshot
	if s.Metrics() != nil {
		t.Fatal("nil snapshot must yield nil metrics")
	}
}

func TestReadSnapshotRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "perf.json")
	if err := os.WriteFile(path, []byte(`{"schema": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(path); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("want schema error, got %v", err)
	}
}
