// Package det provides deterministic iteration over Go maps.
//
// Go randomizes map iteration order per run, so any map range whose body
// order reaches simulation state, output bytes, or returned values breaks
// the repo's byte-identity contracts (parallel sweep ≡ sequential run,
// probe/audit exports stable across reruns). The determinism check in
// internal/lint flags such ranges in every package of the module; the fix
// is to iterate over det.Keys (or det.KeysFunc for non-ordered key types),
// which materializes the key set and sorts it. This package is the single
// blessed place where a raw map range is allowed to feed an ordered result,
// and so one of the check's three exempt packages.
package det

import (
	"cmp"
	"slices"
	"sort"
)

// Keys returns m's keys sorted ascending.
func Keys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// AppendKeys appends m's keys to dst sorted ascending: Keys into a buffer
// the caller reuses, so a walk repeated every few cycles allocates nothing.
func AppendKeys[K cmp.Ordered, V any](dst []K, m map[K]V) []K {
	n := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst[n:])
	return dst
}

// KeysFunc returns m's keys sorted by less, for key types without a total
// order of their own (structs like topo.Link).
func KeysFunc[K comparable, V any](m map[K]V, less func(a, b K) bool) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
	return out
}
