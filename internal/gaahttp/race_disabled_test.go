//go:build !race

package gaahttp

const raceEnabled = false
