//go:build race

package gaahttp

// raceEnabled reports whether the race detector is compiled in; the
// exact-allocation tests skip under it because sync.Pool drops 1 in 4
// Puts in race builds. CI runs them in a non-race step.
const raceEnabled = true
