//go:build race

package engine_test

// raceEnabled reports whether the race detector is built in; its
// instrumentation allocates beside the program, so allocation bounds
// taken from a normal build do not hold under it.
const raceEnabled = true
