//go:build race

package service

// The race detector makes sync.Pool drop items at random, so allocation
// counts mean nothing under it.
func init() { raceEnabled = true }
