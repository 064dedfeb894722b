//go:build race

package costpin

const Race = true
