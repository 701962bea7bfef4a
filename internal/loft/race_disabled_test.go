//go:build !race

package loft

const raceEnabled = false
