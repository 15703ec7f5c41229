//go:build race

package adapt_test

// defaultSchedules is how many seeded fault schedules TestFaultSchedules
// runs: fewer under the race detector, which makes planning about ten
// times slower.
const defaultSchedules = 100
