//go:build !race

package partsvc

const raceEnabled = false
