//go:build race

package frontier

// raceEnabled reports whether this test binary was built with -race.
// sync.Pool deliberately drops a random fraction of Put calls under the
// race detector, so tests asserting pooled reuse cannot hold there.
const raceEnabled = true
