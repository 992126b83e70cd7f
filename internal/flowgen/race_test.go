//go:build race

package flowgen

const raceEnabled = true
