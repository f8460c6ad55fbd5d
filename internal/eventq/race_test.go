//go:build race

package eventq

// raceEnabled reports whether the race detector is on; it allocates on
// its own, so allocation counts are meaningless under it.
const raceEnabled = true
