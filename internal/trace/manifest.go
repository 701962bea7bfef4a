package trace

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"loft/internal/config"
)

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// File names inside a run directory. Every run directory holds
// ManifestName; the other files come from the observers the run attached:
// the probe writes EventsFile, SeriesFile and ChromeFile, the auditor
// AuditFile, and the perfmon monitor PerfFile (stage attribution, engine
// telemetry, gauges) and FoldedFile (the same data as folded stacks for
// flamegraph viewers). The perf files carry wall-time values, so they are
// nondeterministic by design and left out of byte-identity comparisons;
// the manifest still checksums them.
const (
	ManifestName = "manifest.json"
	EventsFile   = "events.jsonl"
	SeriesFile   = "series.csv"
	ChromeFile   = "trace.json"
	AuditFile    = "audit.json"
	PerfFile     = "perf.json"
	FoldedFile   = "perf.folded"
)

// Artifact is one exported file of a run, pinned by checksum so a manifest
// certifies exactly which bytes the analyses below it consumed.
type Artifact struct {
	Name   string `json:"name"`
	Bytes  int64  `json:"bytes"`
	SHA256 string `json:"sha256"`
}

// Manifest records everything needed to reproduce and compare a run: the
// full configuration, seeds, topology, environment provenance (wall time
// and git revision — captured by internal/runenv, outside the
// determinism-checked packages), headline metrics, and the checksummed
// artifact list. Metrics is the flat name → value map DiffMetrics compares;
// encoding/json serializes map keys sorted, keeping manifests byte-stable.
type Manifest struct {
	ManifestVersion int      `json:"manifest_version"`
	Tool            string   `json:"tool"`
	Command         []string `json:"command,omitempty"`
	CreatedUTC      string   `json:"created_utc,omitempty"`
	GitRevision     string   `json:"git_revision,omitempty"`

	// Host parallelism context: without it, parallel-engine numbers from
	// different machines (say, a 1-CPU CI container vs a 16-core desktop)
	// are indistinguishable in cross-run diffs.
	HostCPUs       int `json:"host_cpus,omitempty"`
	HostGoMaxProcs int `json:"host_gomaxprocs,omitempty"`

	Arch          string   `json:"arch,omitempty"`
	Pattern       string   `json:"pattern,omitempty"`
	Seeds         []uint64 `json:"seeds,omitempty"`
	WarmupCycles  uint64   `json:"warmup_cycles,omitempty"`
	MeasureCycles uint64   `json:"measure_cycles,omitempty"`
	MeshK         int      `json:"mesh_k,omitempty"`
	Nodes         int      `json:"nodes,omitempty"`
	// FaultPlan is the canonical rendering of the armed fault-injection
	// plan (fault.Plan.String), empty for clean runs. Together with Seeds
	// it pins a chaos run: the same plan + seed reproduces the run
	// byte-for-byte.
	FaultPlan string `json:"fault_plan,omitempty"`

	Config *config.LOFT `json:"config,omitempty"`

	Metrics   map[string]float64 `json:"metrics,omitempty"`
	Artifacts []Artifact         `json:"artifacts,omitempty"`

	// retiredConfig holds the fields of the config block ReadManifest found
	// that config.LOFT no longer has, so a diff still shows them.
	retiredConfig map[string]any
}

// ReadManifest loads the manifest of run directory dir.
func ReadManifest(dir string) (*Manifest, error) {
	path := filepath.Join(dir, ManifestName)
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	m, err := parseManifest(blob)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return m, nil
}

// parseManifest decodes the bytes of a manifest.json.
func parseManifest(blob []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(blob, &m); err != nil {
		return nil, err
	}
	switch {
	case m.ManifestVersion == 0:
		return nil, fmt.Errorf("not a run manifest (missing manifest_version)")
	case m.ManifestVersion < 0:
		return nil, fmt.Errorf("manifest version %d is not a version (they start at 1)", m.ManifestVersion)
	case m.ManifestVersion > ManifestVersion:
		return nil, fmt.Errorf("manifest version %d is newer than this tool understands (%d)",
			m.ManifestVersion, ManifestVersion)
	}
	var raw struct {
		Config map[string]any `json:"config"`
	}
	if err := json.Unmarshal(blob, &raw); err != nil {
		return nil, err
	}
	known, err := configMap(&m)
	if err != nil {
		return nil, err
	}
	for k, v := range raw.Config {
		if _, ok := known[k]; !ok {
			if m.retiredConfig == nil {
				m.retiredConfig = map[string]any{}
			}
			m.retiredConfig[k] = v
		}
	}
	return &m, nil
}

// Write serializes the manifest to path as indented JSON.
func (m *Manifest) Write(path string) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// FileArtifact checksums one exported file.
func FileArtifact(path string) (Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return Artifact{}, err
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return Artifact{}, fmt.Errorf("%s: %v", path, err)
	}
	return Artifact{
		Name:   filepath.Base(path),
		Bytes:  n,
		SHA256: fmt.Sprintf("%x", h.Sum(nil)),
	}, nil
}
