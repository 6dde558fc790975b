//go:build race

package serve

// Under the race detector a world runs several times slower, so TestWorlds
// runs half as many by default; 8 still deals every policy and lane count
// once. `make verify-worlds` runs 500 without the detector.
func init() { defaultWorlds = 8 }
