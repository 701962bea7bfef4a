// Package topo models the 2D mesh topology used by every network in this
// repository: k×k nodes, bidirectional links between neighbors, five router
// ports (North, East, South, West, Local).
package topo

import "fmt"

// Dir identifies one of the five router ports.
type Dir int

// Router port directions. Local is the injection/ejection port.
const (
	North Dir = iota
	East
	South
	West
	Local
	NumDirs
)

// String returns the conventional one-letter name of the direction.
func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	case Local:
		return "L"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// Opposite returns the port a flit leaving through d enters on the neighbor.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return Local
}

// NodeID numbers mesh nodes as x + y*K, matching the paper (§5.1).
type NodeID int

// Coord is a mesh coordinate.
type Coord struct{ X, Y int }

// Mesh is a k×k 2D mesh.
type Mesh struct {
	K int // nodes per dimension
}

// NewMesh returns a k×k mesh. It panics for k < 1.
func NewMesh(k int) Mesh {
	if k < 1 {
		panic("topo: mesh dimension must be >= 1")
	}
	return Mesh{K: k}
}

// N returns the total node count.
func (m Mesh) N() int { return m.K * m.K }

// Coord returns the coordinate of node id.
func (m Mesh) Coord(id NodeID) Coord {
	return Coord{X: int(id) % m.K, Y: int(id) / m.K}
}

// ID returns the node id at coordinate c.
func (m Mesh) ID(c Coord) NodeID { return NodeID(c.X + c.Y*m.K) }

// Valid reports whether c lies inside the mesh.
func (m Mesh) Valid(c Coord) bool {
	return c.X >= 0 && c.X < m.K && c.Y >= 0 && c.Y < m.K
}

// Neighbor returns the node adjacent to id in direction d and whether such a
// neighbor exists (mesh edges have no wraparound).
func (m Mesh) Neighbor(id NodeID, d Dir) (NodeID, bool) {
	c := m.Coord(id)
	switch d {
	case North:
		c.Y--
	case South:
		c.Y++
	case East:
		c.X++
	case West:
		c.X--
	default:
		return id, false
	}
	if !m.Valid(c) {
		return id, false
	}
	return m.ID(c), true
}

// Hops returns the minimal hop distance between two nodes.
func (m Mesh) Hops(a, b NodeID) int {
	ca, cb := m.Coord(a), m.Coord(b)
	return abs(ca.X-cb.X) + abs(ca.Y-cb.Y)
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// Link identifies a directed physical link: the output port d of router From.
// The Local direction denotes the ejection link of From.
type Link struct {
	From NodeID
	D    Dir
}

// String formats the link for diagnostics.
func (l Link) String() string { return fmt.Sprintf("%d.%s", int(l.From), l.D) }

// Less orders links by (From, D), the iteration order for deterministic
// walks over link-keyed maps (det.KeysFunc).
func (l Link) Less(m Link) bool {
	if l.From != m.From {
		return l.From < m.From
	}
	return l.D < m.D
}

// InjectionLink returns the link from node n's network interface into its
// router (modeled as a link so it can carry an output scheduler like any
// other). Its direction is NumDirs, so it is never confused with the
// router-to-sink ejection link, direction Local.
func InjectionLink(n NodeID) Link { return Link{From: n, D: NumDirs} }

// RenderHeatmap renders per-link utilization over the mesh as an ASCII
// grid: each node shows its East (right) and South (below) link loads as
// digits 0–9 (tenths of full utilization), a quick visual for locating hot
// regions. Both the LOFT and GSF networks feed it from their link gauges.
func RenderHeatmap(m Mesh, util map[Link]float64) string {
	digit := func(l Link) byte {
		u, ok := util[l]
		if !ok {
			return ' '
		}
		d := int(u * 10)
		if d > 9 {
			d = 9
		}
		return byte('0' + d)
	}
	var b []byte
	for y := 0; y < m.K; y++ {
		for x := 0; x < m.K; x++ {
			id := m.ID(Coord{X: x, Y: y})
			b = append(b, fmt.Sprintf("%3d", id)...)
			if x+1 < m.K {
				b = append(b, ' ', digit(Link{From: id, D: East}), ' ')
			}
		}
		b = append(b, '\n')
		if y+1 < m.K {
			for x := 0; x < m.K; x++ {
				id := m.ID(Coord{X: x, Y: y})
				b = append(b, ' ', ' ', digit(Link{From: id, D: South}))
				if x+1 < m.K {
					b = append(b, ' ', ' ', ' ')
				}
			}
			b = append(b, '\n')
		}
	}
	return string(b)
}
