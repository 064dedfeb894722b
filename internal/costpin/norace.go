//go:build !race

package costpin

// Race reports whether the race detector is compiled in.
const Race = false
