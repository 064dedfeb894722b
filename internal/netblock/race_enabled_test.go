//go:build race

package netblock

// raceEnabled reports whether the race detector is compiled in; heap
// readings include its shadow state, so TestHostEntryBytes skips under it.
const raceEnabled = true
