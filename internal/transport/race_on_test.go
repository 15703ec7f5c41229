//go:build race

package transport

// raceEnabled reports that this binary was built with the race
// detector, whose sync.Pool instrumentation deliberately drops a
// quarter of Puts — which makes allocation and pool hit-rate
// assertions meaningless.
const raceEnabled = true
