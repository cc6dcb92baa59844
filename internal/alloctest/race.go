//go:build race

package alloctest

func init() { raceEnabled = true }
