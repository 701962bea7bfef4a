package trace

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"loft/internal/config"
)

// sampleManifest is a manifest with every field set.
func sampleManifest() Manifest {
	cfg := config.PaperLOFT()
	return Manifest{
		ManifestVersion: ManifestVersion,
		Tool:            "loftsim",
		Command:         []string{"loftsim", "-arch", "loft"},
		CreatedUTC:      "2026-08-08T00:00:00Z",
		GitRevision:     "deadbeef",
		Arch:            "loft",
		Pattern:         "case1",
		Seeds:           []uint64{1, 2},
		WarmupCycles:    200,
		MeasureCycles:   1500,
		MeshK:           8,
		Nodes:           64,
		Config:          &cfg,
		Metrics:         map[string]float64{"packets": 1234, "avg_latency_cycles": 56.7},
		Artifacts:       []Artifact{{Name: "events.jsonl", Bytes: 10, SHA256: "ab"}},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	dir := t.TempDir()
	path := filepath.Join(dir, ManifestName)
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, m) {
		t.Errorf("round trip diverged:\n got %+v\nwant %+v", *got, m)
	}
	// Byte-stable: writing the same manifest twice yields identical bytes.
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Write(path); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(first) != string(second) {
		t.Error("manifest serialization is not byte-stable")
	}
}

// TestReadManifestRejectsBadVersion checks that a manifest_version that is
// missing, below 1 or newer than ManifestVersion is an error, not a
// manifest.
func TestReadManifestRejectsBadVersion(t *testing.T) {
	for _, c := range []struct{ blob, want string }{
		{`{"tool": "x"}`, "missing manifest_version"},
		{`{"manifest_version": 0, "tool": "x"}`, "missing manifest_version"},
		{`{"manifest_version": -3, "tool": "x"}`, "manifest version -3 is not a version"},
		{`{"manifest_version": 9999}`, "manifest version 9999 is newer"},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(c.blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one containing %q", c.blob, err, c.want)
		}
	}
}

// FuzzReadManifest parses arbitrary bytes as a run's manifest.json, as
// ReadManifest does. The parse must fail, or give a manifest whose exported
// fields Write and ReadManifest return unchanged.
func FuzzReadManifest(f *testing.F) {
	m := sampleManifest()
	blob, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add([]byte(`{"manifest_version": -3, "tool": "x"}`))
	f.Add([]byte(`{"manifest_version": 1, "seeds": [], "metrics": {}, "config": {"MeshK": 4, "Retired": true}}`))
	dir := f.TempDir()
	path := filepath.Join(dir, ManifestName)
	f.Fuzz(func(t *testing.T, blob []byte) {
		first, err := parseManifest(blob)
		if err != nil {
			return
		}
		if err := first.Write(path); err != nil {
			t.Fatal(err)
		}
		second, err := ReadManifest(dir)
		if err != nil {
			t.Fatalf("rereading the written manifest: %v", err)
		}
		if a, b := exported(first), exported(second); !reflect.DeepEqual(a, b) {
			t.Errorf("round trip diverged:\n got %+v\nwant %+v", b, a)
		}
	})
}

// exported returns m's exported fields, with empty slices and maps as nil:
// Write omits both alike.
func exported(m *Manifest) Manifest {
	e := *m
	e.retiredConfig = nil
	if len(e.Command) == 0 {
		e.Command = nil
	}
	if len(e.Seeds) == 0 {
		e.Seeds = nil
	}
	if len(e.Metrics) == 0 {
		e.Metrics = nil
	}
	if len(e.Artifacts) == 0 {
		e.Artifacts = nil
	}
	return e
}

func TestFileArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.jsonl")
	if err := os.WriteFile(path, []byte("hello\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := FileArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if a.Name != "events.jsonl" || a.Bytes != 6 {
		t.Errorf("artifact = %+v", a)
	}
	// sha256("hello\n")
	if a.SHA256 != "5891b5b522d5df086d0ff0b110fbd9d21bb4fc7163af34d08286a2e846f6be03" {
		t.Errorf("sha256 = %s", a.SHA256)
	}
}
