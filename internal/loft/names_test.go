package loft

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"loft/internal/buffers"
	"loft/internal/topo"
	"loft/internal/traffic"
)

var updateNames = flag.Bool("update", false, "rewrite testdata/names-3x3.txt from the current build")

// TestComponentNames pins the diagnostic name of every reservation table,
// credit counter and link register of a 3×3 network, node by node. The
// names reach users through panics and the auditor's reports, so they must
// read the same however the components are stored.
func TestComponentNames(t *testing.T) {
	cfg := smallCfg(4)
	cfg.MeshK = 3
	net := mustNet(t, cfg, traffic.Uniform(cfg.Mesh(), 0.1, cfg.PacketFlits, cfg.FrameFlits), 1, 0)
	var b strings.Builder
	for _, n := range net.nodes {
		fmt.Fprintf(&b, "table %s\n", n.outTables[topo.NumDirs].Name())
		for d := topo.North; d < topo.NumDirs; d++ {
			if n.outTables[d] != nil {
				fmt.Fprintf(&b, "table %s\n", n.outTables[d].Name())
				fmt.Fprintf(&b, "credit %s\n", underflowName(&n.credNonSpec[d]))
				fmt.Fprintf(&b, "credit %s\n", underflowName(&n.credSpec[d]))
			}
		}
		fmt.Fprintf(&b, "credit %s\n", underflowName(&n.credNonSpec[topo.NumDirs]))
		fmt.Fprintf(&b, "credit %s\n", underflowName(&n.credSpec[topo.NumDirs]))
		for o := topo.North; o < topo.Local; o++ {
			if _, ok := n.mesh.Neighbor(n.id, o); ok {
				fmt.Fprintf(&b, "credit %s\n", underflowName(&n.la.credits[o]))
			}
		}
		fmt.Fprintf(&b, "reg %s\n", n.niData.Name())
		for d := 0; d < 4; d++ {
			if n.dataOut[d] == nil {
				continue
			}
			for _, name := range []string{n.dataOut[d].Name(), n.laOut[d].Name(), n.vcredOut[d].Name(), n.rcredOut[d].Name(), n.laCredOut[d].Name()} {
				fmt.Fprintf(&b, "reg %s\n", name)
			}
		}
	}
	const path = "testdata/names-3x3.txt"
	if *updateNames {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	lines := strings.Split(string(want), "\n")
	if len(got) != len(lines) {
		t.Fatalf("%d names, want %d", len(got)-1, len(lines)-1)
	}
	for i := range got {
		if got[i] != lines[i] {
			t.Errorf("name %d: %q, want %q", i+1, got[i], lines[i])
		}
	}
}

// underflowName reads a credit counter's name from its underflow panic: it
// spends every credit, then one more. The counter is left drained. The panic
// and the Name accessor must agree.
func underflowName(c *buffers.Credits) (name string) {
	defer func() {
		msg := fmt.Sprint(recover())
		name = strings.TrimPrefix(msg, "buffers: credit underflow on ")
		if name != c.Name() {
			name = fmt.Sprintf("%s (Name reads %s)", name, c.Name())
		}
	}()
	for {
		c.Consume()
	}
}
