//go:build race

package engine

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so pooled-buffer allocation counts are only
// meaningful without it.
const raceEnabled = true
