//go:build race

package apps

// raceEnabled: under -race, sync.Pool randomly drops Puts to shake out
// lifetime bugs, so zero-allocation steady-state assertions are skipped.
const raceEnabled = true
