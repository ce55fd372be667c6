//go:build !race

package main

// raceEnabled reports a -race build (race_test.go).
const raceEnabled = false
