//go:build race

package serve

// Under the race detector a world runs several times slower, so TestWorlds
// runs 12 by default: three rounds of the deal, so every policy meets every
// deadline kind on one, two and three lanes. `make verify-worlds` runs 500
// without the detector.
func init() { defaultWorlds = 12 }
