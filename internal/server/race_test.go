//go:build race

package server

// Under the race detector sync.Pool drops a share of what is put back, so
// a pooled buffer is regrown at random and allocation counts measure the
// detector, not the writer.
func init() { raceEnabled = true }
