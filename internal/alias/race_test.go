//go:build race

package alias_test

// The race detector makes sync.Pool drop items at random, so allocation
// counts mean nothing under it.
func init() { raceEnabled = true }
