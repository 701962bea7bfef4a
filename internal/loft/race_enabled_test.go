//go:build race

package loft

// raceEnabled reports whether this test binary runs under the race
// detector (the race build tag is set by -race).
const raceEnabled = true
