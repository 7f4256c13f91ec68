//go:build race

package index

// raceEnabled reports that the race detector is on: it allocates behind
// the program's back, so allocation budgets do not hold under it.
const raceEnabled = true
