//go:build !race

package netblock

const raceEnabled = false
