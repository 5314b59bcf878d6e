//go:build race

package core

// raceEnabled reports whether the race detector is active; its
// instrumentation (and sync.Pool's behavior under it) perturbs
// allocation counts, so the AllocsPerRun pins skip themselves, and it
// multiplies heap use, so the default-scale cache-shape test shrinks
// its frame.
const raceEnabled = true
