//go:build race

package core

// The race detector allocates on its own account, so exact allocation counts
// vary from run to run under it.
func init() { raceDetector = true }
