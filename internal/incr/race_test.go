//go:build race

package incr

// The race detector allocates on its own account, so TestTickAllocs
// counts only without it.
func init() { raceEnabled = true }
