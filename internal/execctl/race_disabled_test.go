//go:build !race

package execctl

const raceEnabled = false
