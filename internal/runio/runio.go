// Package runio is what the simulator CLIs share. Session (session.go)
// carries one invocation from flag parsing to exit code: the flags loftsim
// and loftexp have in common, the observers built from them, the SIGINT
// handler, the artifact export and the audit verdict. The rest of the
// package writes the run directory that -out names and lofttrace reads: the
// files of each attached observer and the manifest that checksums them.
package runio

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"loft/internal/audit"
	"loft/internal/core"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/trace"
)

// runFile is one artifact of a run directory and the writer of its bytes.
type runFile struct {
	name  string
	write func(io.Writer) error
}

// WriteRunDir writes a run directory: events.jsonl, series.csv and
// trace.json from the probe, audit.json from the auditor, and perf.json and
// perf.folded from the perfmon monitor, each when its observer is attached
// (non-nil), then manifest.json checksumming every one of them. The
// manifest's Artifacts field is filled here; everything else comes from the
// caller.
func WriteRunDir(dir string, pr *probe.Probe, aud *audit.Auditor, mon *perfmon.Monitor, m trace.Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var files []runFile
	if pr != nil {
		events, series, dropped := pr.Events(), pr.Series(), pr.Tracer().Dropped()
		files = append(files,
			runFile{trace.EventsFile, func(w io.Writer) error { return probe.WriteEventsJSONL(w, events, dropped) }},
			runFile{trace.SeriesFile, func(w io.Writer) error { return probe.WriteSeriesCSV(w, series) }},
			runFile{trace.ChromeFile, func(w io.Writer) error { return probe.WriteChromeTrace(w, events, series, dropped) }})
	}
	if aud != nil {
		files = append(files, runFile{trace.AuditFile, jsonWriter(aud.Snapshot())})
	}
	if mon != nil {
		snap := mon.Snapshot()
		files = append(files, runFile{trace.PerfFile, jsonWriter(snap)}, runFile{trace.FoldedFile, snap.WriteFolded})
	}
	m.Artifacts = m.Artifacts[:0]
	for _, f := range files {
		path := filepath.Join(dir, f.name)
		if err := writeFile(path, f.write); err != nil {
			return err
		}
		a, err := trace.FileArtifact(path)
		if err != nil {
			return err
		}
		m.Artifacts = append(m.Artifacts, a)
	}
	return m.Write(filepath.Join(dir, trace.ManifestName))
}

// jsonWriter writes v as indented JSON with a trailing newline.
func jsonWriter(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		blob, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		_, err = w.Write(append(blob, '\n'))
		return err
	}
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Metrics assembles the manifest metric map from a run summary and the
// attached layers: headline result metrics (the latencies only when a
// packet was measured), scheduler outcome rates from
// the probe's kind counters, the offline latency decomposition, the
// auditor's delay-bound margin, and the perfmon monitor's stage/engine
// summary metrics. Any of the four sources may be nil.
func Metrics(res *core.Result, pr *probe.Probe, aud *audit.Auditor, mon *perfmon.Monitor, slotCycles uint64) map[string]float64 {
	m := make(map[string]float64)
	if res != nil {
		m["throughput_flits_per_cycle"] = res.TotalRate
		m["packets"] = float64(res.Packets)
		// With no packet measured there is no latency: a 0 here would
		// read as one, and a diff would compare it as one.
		if res.Packets > 0 {
			m["avg_latency_cycles"] = res.AvgLatency
			m["p50_latency_cycles"] = res.P50Latency
			m["p99_latency_cycles"] = res.P99Latency
			m["max_latency_cycles"] = float64(res.MaxLatency)
			m["avg_net_latency_cycles"] = res.AvgNetLatency
		}
		m["spec_forwards"] = float64(res.SpecForward)
		m["drops"] = float64(res.Drops)
		m["resets"] = float64(res.Resets)
		if res.FaultsInjected > 0 || res.FlitsLost > 0 || res.Retries > 0 {
			m["faults_injected"] = float64(res.FaultsInjected)
			m["flits_lost"] = float64(res.FlitsLost)
			m["fault_retries"] = float64(res.Retries)
		}
	}
	if pr != nil {
		tr := pr.Tracer()
		grants := float64(tr.Count(probe.KindReserveGrant))
		denies := float64(tr.Count(probe.KindReserveDeny))
		if grants+denies > 0 {
			m["reserve_deny_rate"] = denies / (grants + denies)
		}
		if grants > 0 {
			m["frame_skip_rate"] = float64(tr.Count(probe.KindFrameSkip)) / grants
		}
		if attempts := float64(tr.Count(probe.KindSpecAttempt)); attempts > 0 {
			m["spec_abort_rate"] = float64(tr.Count(probe.KindSpecAbort)) / attempts
		}
		if slotCycles > 0 {
			if d, err := trace.Decompose(pr.Events(), slotCycles, tr.Dropped()); err == nil {
				for k, v := range d.Metrics {
					m[k] = v
				}
			}
		}
	}
	if aud != nil {
		s := aud.Snapshot()
		m["delay_bound_margin_pct"] = s.WorstMarginPct
		m["audit_violations"] = float64(s.Violations)
	}
	if mon != nil {
		for k, v := range mon.Snapshot().Metrics() {
			m[k] = v
		}
	}
	return m
}

// Describe summarizes what a run directory write produced, for CLI output.
func Describe(dir string, pr *probe.Probe, aud *audit.Auditor, mon *perfmon.Monitor) string {
	parts := []string{}
	if pr != nil {
		parts = append(parts, fmt.Sprintf("%s/%s/%s (%d events retained, %d dropped)",
			trace.EventsFile, trace.SeriesFile, trace.ChromeFile, pr.Tracer().Len(), pr.Tracer().Dropped()))
	}
	if aud != nil {
		parts = append(parts, trace.AuditFile)
	}
	if mon != nil {
		parts = append(parts, fmt.Sprintf("%s/%s", trace.PerfFile, trace.FoldedFile))
	}
	parts = append(parts, trace.ManifestName)
	return fmt.Sprintf("wrote run directory %s: %s", dir, strings.Join(parts, ", "))
}
