// Package label names simulator components on read. A LOFT network builds
// thousands of reservation tables, credit counters and link registers, and
// only a panic message or the auditor ever reads their names. A Label holds
// a formatter and its two integer arguments instead of the formatted
// string, so naming a component allocates nothing.
package label

// Label is a diagnostic name: format(a, b), formatted each time it is read,
// or a fixed string.
type Label struct {
	format func(a, b int) string
	a, b   int32
	fixed  string
}

// New returns the label that reads format(a, b). format should be a
// top-level function: a closure would allocate, which a Label avoids.
func New(format func(a, b int) string, a, b int) Label {
	return Label{format: format, a: int32(a), b: int32(b)}
}

// Fixed returns the label that reads s.
func Fixed(s string) Label { return Label{fixed: s} }

// String formats the name.
func (l Label) String() string {
	if l.format == nil {
		return l.fixed
	}
	return l.format(int(l.a), int(l.b))
}
