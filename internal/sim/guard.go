package sim

import (
	"fmt"

	"mdegst/internal/graph"
)

// The run guard (DESIGN.md §6). The paper states the improvement
// protocol's cost per round, O(m) messages (§4.2), so the engines budget
// deliveries per protocol round, not per run: a run fails with a
// *BudgetError once a window of deliveries passes without a new highest
// protocol round. EventEngine's two tiers, ReferenceEngine and
// internal/net's DistEngine each keep one Guard; AsyncEngine keeps none.
// A livelock that keeps opening rounds ends at the report's round bound
// instead, as a *WireError.
//
// Once a round >= 1 has been delivered, the window is roundWindow·(n+m):
// the largest improvement round measured delivers 2.98·(n+m)
// (hypercube-64 from a random tree, Multi round 1). Round 0 is the whole
// run of a protocol whose opcodes carry no round word, such as the
// spanning builders, where the echo-wave election spends Θ(n·m), so round
// 0 gets n windows. The builders measured spend at most 1.17·n·(n+m) (GHS
// on one edge; ring-4096's election 0.13), and a burst of 64 records over
// one edge 10.7·n·(n+m). TestRoundsWithinWindow (internal/mdst) holds
// every round of a corpus of builders and improvements to a quarter of
// its window.
const roundWindow = 16

// Window returns the guard's window over c while the highest protocol
// round delivered is round.
func Window(c *graph.CSR, round int) int64 {
	w := roundWindow * int64(c.N()+c.M())
	if round == 0 {
		return int64(c.N()) * w
	}
	return w
}

// Guard is a run's progress window: the highest protocol round delivered
// so far and the deliveries made by the barrier where it first appeared.
// The zero value is not ready; use NewGuard.
type Guard struct {
	top    int   // highest protocol round delivered
	since  int64 // deliveries made when top first appeared
	window int64 // Window(c, top)
	later  int64 // Window(c, 1), the window once top >= 1
}

// NewGuard returns the guard of a run over c that has delivered nothing.
func NewGuard(c *graph.CSR) Guard {
	return Guard{window: Window(c, 0), later: Window(c, 1)}
}

// Resume opens a fresh window at a checkpoint's counters: the highest
// round they hold, from the deliveries they count.
func (g *Guard) Resume(ck *Checkpoint) {
	top := 0
	for _, k := range ck.KindRounds {
		top = max(top, k.Round)
	}
	g.Merge(top, ck.Messages)
}

// Observe notes a new highest round among the deliveries rep has counted,
// opened by the time the run had made delivered deliveries. rep must be
// running (not finalized).
func (g *Guard) Observe(rep *Report, delivered int64) {
	if s := rep.run; s.hi > (g.top+1)*s.w {
		g.Merge((s.hi-1)/s.w, delivered)
	}
}

// Merge takes in another view of the same run's progress: the highest
// round it saw and the deliveries made when that round first appeared.
// Both grow along a run, so the later view is the larger in both, and
// Merge keeps the larger of each.
func (g *Guard) Merge(top int, since int64) {
	if top > g.top {
		g.top, g.window = top, g.later
	}
	g.since = max(g.since, since)
}

// Top and Since return the guard's view, for a peer's Merge.
func (g *Guard) Top() int     { return g.top }
func (g *Guard) Since() int64 { return g.since }

// Trips reports whether playing next more deliveries, after delivered,
// would pass the window without a new highest round.
func (g *Guard) Trips(delivered, next int64) bool {
	return delivered+next-g.since > g.window
}

// Abort returns the run's *BudgetError after delivered deliveries.
func (g *Guard) Abort(delivered int64) error {
	return &BudgetError{Messages: delivered, Limit: g.window, Rounds: g.top}
}

// BudgetError is the typed abort of a run whose guard tripped: Messages
// had been delivered, and the next delivery (the next round, on the round
// tiers) would have passed Limit deliveries without a protocol round above
// Rounds. Callers match it with errors.As.
type BudgetError struct {
	Messages int64 // deliveries made when the run aborted
	Limit    int64 // the window
	Rounds   int   // the highest protocol round delivered
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: no protocol round above %d within a window of %d deliveries (%d delivered)", e.Rounds, e.Limit, e.Messages)
}
