package loft

import (
	"fmt"

	"loft/internal/topo"
)

// The names of a node's reservation tables, credit counters and link
// registers. A network holds thousands of these components and only a panic
// message or the auditor reads their names, so each component keeps a
// label.Label over one of these formatters and formats on read. Each takes a
// node id and a direction, or a link's two endpoints.

// tableName names the output table of direction d; Local is the ejection
// link and NumDirs the injection link.
func tableName(id, d int) string {
	switch topo.Dir(d) {
	case topo.Local:
		return fmt.Sprintf("n%d.eject", id)
	case topo.NumDirs:
		return fmt.Sprintf("n%d.inject", id)
	}
	return fmt.Sprintf("n%d.%s", id, topo.Dir(d))
}

// nonspecName and specName name the real credits toward the downstream
// central and speculative buffers of output d; d == NumDirs names the NI's,
// toward the router's local input.
func nonspecName(id, d int) string { return creditName(id, d, "nonspec") }
func specName(id, d int) string    { return creditName(id, d, "spec") }

func creditName(id, d int, buf string) string {
	if topo.Dir(d) == topo.NumDirs {
		return fmt.Sprintf("n%d.ni.%s", id, buf)
	}
	return fmt.Sprintf("n%d.%s.%s", id, topo.Dir(d), buf)
}

// laCreditName names the look-ahead credits toward the neighbour at d.
func laCreditName(id, d int) string { return fmt.Sprintf("n%d.la.%s", id, topo.Dir(d)) }

// niDataName names the register from a node's NI into its router.
func niDataName(id, _ int) string { return fmt.Sprintf("n%d.nidata", id) }

// The link registers, named by the node that writes them and the node that
// reads them.
func dataName(from, to int) string   { return fmt.Sprintf("data %d->%d", from, to) }
func laName(from, to int) string     { return fmt.Sprintf("la %d->%d", from, to) }
func vcredName(from, to int) string  { return fmt.Sprintf("vcred %d->%d", from, to) }
func rcredName(from, to int) string  { return fmt.Sprintf("rcred %d->%d", from, to) }
func laCredName(from, to int) string { return fmt.Sprintf("lacred %d->%d", from, to) }
