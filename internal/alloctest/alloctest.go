// Package alloctest holds the rule behind the per-workload allocation
// budget tests (TestFloodAllocBudget and its siblings): a workload fails
// when its whole-process allocations per run exceed 1.10× its recorded
// budget and the budget plus 64. The relative bound catches a per-node or
// per-message allocation coming back; the absolute slack covers a GC
// evicting the engines' pools mid-measure, which moves the small workloads
// by tens of allocations.
package alloctest

import "testing"

// Check measures f with testing.AllocsPerRun(runs, f) and fails t when the
// count breaks the rule. The race detector makes sync.Pool drop entries at
// random, so under it the budgets do not apply and Check skips t.
func Check(t testing.TB, runs int, budget float64, f func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation budgets hold for builds without the race detector")
	}
	got := testing.AllocsPerRun(runs, f)
	t.Logf("%.0f allocs per run (budget %.0f)", got, budget)
	if got > 1.10*budget && got-budget > 64 {
		t.Errorf("%.0f allocs per run, budget %.0f", got, budget)
	}
}
