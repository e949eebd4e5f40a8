//go:build race

package measure

// raceEnabled reports a -race build: sync.Pool then drops a quarter of
// its Puts on purpose, so allocation counts mean nothing.
const raceEnabled = true
