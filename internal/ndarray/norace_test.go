//go:build !race

package ndarray

const raceEnabled = false
