//go:build race

package execctl

// raceEnabled reports whether the race detector is compiled in; the
// exact-allocation test skips under it because sync.Pool drops 1 in 4
// Puts in race builds. CI runs it in a non-race step.
const raceEnabled = true
