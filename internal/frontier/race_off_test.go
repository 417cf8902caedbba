//go:build !race

package frontier

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = false
