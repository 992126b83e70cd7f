//go:build race

package flow

const raceEnabled = true
