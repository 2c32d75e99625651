//go:build race

package harness

// raceEnabled reports a -race build, where sync.Pool drops a share of
// what it is given on purpose.
const raceEnabled = true
