package trace

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"loft/internal/config"
)

func TestManifestRoundTrip(t *testing.T) {
	cfg := config.PaperLOFT()
	m := Manifest{
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

func TestReadManifestRejectsNewerVersion(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(`{"manifest_version": 9999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadManifest(dir)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("err = %v, want unsupported-version error", err)
	}
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
