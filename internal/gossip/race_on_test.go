//go:build race

package gossip

// raceEnabled: the race detector slows the property sweeps about tenfold,
// so they run a fiftieth of their seeds under it.
const raceEnabled = true
