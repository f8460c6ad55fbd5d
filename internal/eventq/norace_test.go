//go:build !race

package eventq

const raceEnabled = false
