//go:build !race

package adapt_test

const defaultSchedules = 1000
