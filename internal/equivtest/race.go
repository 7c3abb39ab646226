//go:build race

package equivtest

// RaceEnabled reports a race-detector build, in which sync.Pool drops a
// random quarter of the values put back into it: an exact allocation
// count, which counts on the pooled forward arenas, holds only without
// the detector.
const RaceEnabled = true
