//go:build race

package partsvc

// raceEnabled reports that this binary was built with the race
// detector, whose sync.Pool drops a quarter of Puts: pooled scratch
// buffers are then allocated afresh, so byte budgets do not hold.
const raceEnabled = true
