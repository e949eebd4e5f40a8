//go:build !race

package mcs

const raceEnabled = false
