//go:build race

package loadgen

// raceEnabled lets strict allocation-count tests skip under the race
// detector, whose instrumentation (and sync.Pool's deliberate put
// dropping in race mode) perturbs per-op allocation counts. The non-race
// run still enforces the exact budgets.
const raceEnabled = true
