//go:build race

package chord

func init() { raceEnabled = true }
