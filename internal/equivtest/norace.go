//go:build !race

package equivtest

// RaceEnabled reports a race-detector build (see race.go).
const RaceEnabled = false
