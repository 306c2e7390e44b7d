//go:build race

package cluster

// raceEnabled: the race detector slows compute-bound ranks about tenfold,
// which starves a 5 ms failure detector by itself; tests of scheduling
// behaviour under production detector settings skip.
const raceEnabled = true
