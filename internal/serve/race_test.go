//go:build race

package serve

// Under the race detector a world runs several times slower, so TestWorlds
// runs 8 by default, which still deals every policy and lane count once.
// `make verify-worlds` runs 500 without the detector.
func init() { defaultWorlds = 8 }
