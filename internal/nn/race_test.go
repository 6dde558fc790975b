//go:build race

package nn

// Under the race detector sync.Pool drops a quarter of its Puts at random,
// so Predict's arena is sometimes a fresh one and the allocation gate cannot
// hold; `make bench-tickpath` runs it without the detector.
func init() { raceDetector = true }
