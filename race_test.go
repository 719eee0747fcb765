//go:build race

package viewcube_test

const raceEnabled = true
