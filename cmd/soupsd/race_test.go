//go:build race

package main

// raceEnabled reports a -race build, whose sync.Pool drops one Put in four
// at random by design (sync/pool.go): pooled buffers are then reallocated by
// chance, so an allocation budget is logged there, not enforced.
const raceEnabled = true
