//go:build !race

package gsf

const raceEnabled = false
