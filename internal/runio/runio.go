// Package runio is what the simulator CLIs share. Session (session.go)
// carries one invocation from flag parsing to exit code: the flags loftsim
// and loftexp have in common, the observers built from them, the SIGINT
// handler, the artifact export and the audit verdict. The rest of the
// package writes the per-run artifact sets: the probe exporters' three file
// formats, the audit conformance snapshot, the perf snapshot, and the run
// manifest with checksummed artifacts — as a single file picked by extension
// (probe.FormatForPath) or as the run directory lofttrace consumes whole.
package runio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"loft/internal/audit"
	"loft/internal/core"
	"loft/internal/perfmon"
	"loft/internal/probe"
	"loft/internal/profiles"
	"loft/internal/trace"
)

// File names inside a run directory.
const (
	EventsFile = "events.jsonl"
	SeriesFile = "series.csv"
	ChromeFile = "trace.json"
	AuditFile  = "audit.json"
	// PerfFile is the perfmon snapshot (stage attribution, engine telemetry,
	// gauges); FoldedFile is the same data as folded stacks for flamegraph
	// viewers; CPUProfileFile is an optional pprof CPU profile. Perf files
	// carry wall-time values, so they are nondeterministic by design and
	// excluded from byte-identity comparisons (manifest checksums still pin
	// them).
	PerfFile       = perfmon.SnapshotFile
	FoldedFile     = "perf.folded"
	CPUProfileFile = "cpu.pprof"
)

// IsDirTarget reports whether path names a run directory rather than a
// single artifact file: an existing directory, or a path spelled with a
// trailing separator. Every other path goes through extension dispatch, so
// `-probe-out trace.jsonl` and `-probe-out runs/a/` coexist.
func IsDirTarget(path string) bool {
	if strings.HasSuffix(path, "/") || strings.HasSuffix(path, string(os.PathSeparator)) {
		return true
	}
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// WriteRunDir writes a full run directory: events.jsonl, series.csv and
// trace.json from the probe (when attached), audit.json from the auditor
// (when attached), perf.json and perf.folded from the perfmon monitor (when
// attached), and manifest.json with every artifact checksummed. A cpu.pprof
// left in the directory by StartCPUProfile is checksummed too. The
// manifest's Artifacts field is filled here; everything else comes from the
// caller.
func WriteRunDir(dir string, pr *probe.Probe, aud *audit.Auditor, mon *perfmon.Monitor, m trace.Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var names []string
	if pr != nil {
		exports := []struct {
			name   string
			format probe.Format
		}{
			{EventsFile, probe.FormatJSONL},
			{SeriesFile, probe.FormatCSV},
			{ChromeFile, probe.FormatChromeTrace},
		}
		for _, e := range exports {
			if err := writeExport(filepath.Join(dir, e.name), pr, e.format); err != nil {
				return err
			}
			names = append(names, e.name)
		}
	}
	if aud != nil {
		if err := WriteAuditSnapshot(filepath.Join(dir, AuditFile), aud); err != nil {
			return err
		}
		names = append(names, AuditFile)
	}
	if mon != nil {
		if err := WritePerfSnapshot(dir, mon); err != nil {
			return err
		}
		names = append(names, PerfFile, FoldedFile)
	}
	if _, err := os.Stat(filepath.Join(dir, CPUProfileFile)); err == nil {
		names = append(names, CPUProfileFile)
	}
	m.Artifacts = m.Artifacts[:0]
	for _, name := range names {
		a, err := trace.FileArtifact(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		m.Artifacts = append(m.Artifacts, a)
	}
	return m.Write(filepath.Join(dir, trace.ManifestName))
}

// WriteFileWithManifest writes one artifact through the extension-dispatch
// path and a sibling <path>.manifest.json checksumming it.
func WriteFileWithManifest(path string, pr *probe.Probe, m trace.Manifest) error {
	f, err := probe.FormatForPath(path)
	if err != nil {
		return err
	}
	if err := writeExport(path, pr, f); err != nil {
		return err
	}
	a, err := trace.FileArtifact(path)
	if err != nil {
		return err
	}
	m.Artifacts = []trace.Artifact{a}
	return m.Write(path + ".manifest.json")
}

// WriteAuditSnapshot writes the auditor's conformance snapshot as indented
// JSON, the document trace.ReadAuditFile reads back.
func WriteAuditSnapshot(path string, aud *audit.Auditor) error {
	blob, err := json.MarshalIndent(aud.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// WritePerfSnapshot writes the monitor's snapshot into dir twice: PerfFile
// as indented JSON (what `lofttrace perf` reads back) and FoldedFile as
// folded stacks for flamegraph viewers.
func WritePerfSnapshot(dir string, mon *perfmon.Monitor) error {
	snap := mon.Snapshot()
	blob, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, PerfFile), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, FoldedFile))
	if err != nil {
		return err
	}
	if err := snap.WriteFolded(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// StartCPUProfile begins a pprof CPU profile into dir/CPUProfileFile,
// creating dir if needed. The returned stop function must run before
// WriteRunDir so the profile's final bytes are what the manifest checksums.
func StartCPUProfile(dir string) (stop func(), err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return profiles.Start(filepath.Join(dir, CPUProfileFile), "")
}

func writeExport(path string, pr *probe.Probe, f probe.Format) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := probe.Export(file, pr, f); err != nil {
		file.Close()
		return err
	}
	return file.Close()
}

// Metrics assembles the manifest metric map from a run summary and the
// attached layers: headline result metrics, scheduler outcome rates from
// the probe's kind counters, the offline latency decomposition, the
// auditor's delay-bound margin, and the perfmon monitor's stage/engine
// summary metrics. Any of the four sources may be nil.
func Metrics(res *core.Result, pr *probe.Probe, aud *audit.Auditor, mon *perfmon.Monitor, slotCycles uint64) map[string]float64 {
	m := make(map[string]float64)
	if res != nil {
		m["throughput_flits_per_cycle"] = res.TotalRate
		m["packets"] = float64(res.Packets)
		m["avg_latency_cycles"] = res.AvgLatency
		m["p50_latency_cycles"] = res.P50Latency
		m["p99_latency_cycles"] = res.P99Latency
		m["max_latency_cycles"] = float64(res.MaxLatency)
		m["avg_net_latency_cycles"] = res.AvgNetLatency
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
				for k, v := range d.Metrics() {
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
			EventsFile, SeriesFile, ChromeFile, pr.Tracer().Len(), pr.Tracer().Dropped()))
	}
	if aud != nil {
		parts = append(parts, AuditFile)
	}
	if mon != nil {
		parts = append(parts, fmt.Sprintf("%s/%s", PerfFile, FoldedFile))
	}
	parts = append(parts, trace.ManifestName)
	return fmt.Sprintf("wrote run directory %s: %s", dir, strings.Join(parts, ", "))
}
