//go:build race

package alloctest

const raceEnabled = true
