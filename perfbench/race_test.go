//go:build race

package main

// raceEnabled reports a race-detector build. Under it sync.Pool drops items
// at random, so allocation counts do not repeat between runs.
const raceEnabled = true
