//go:build !race

package ged

const raceEnabled = false
