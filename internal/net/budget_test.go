package net

import (
	"errors"
	"math"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// TestDistBudgetAbort runs livelocking token walks on a two-process
// loopback mesh under a small message budget. Both processes must abort
// with a *sim.BudgetError counting the same deliveries, and neither may
// hang waiting for the other. In "all-active" every node walks a token, so
// both processes play every round and the cap trips at a full barrier. In
// "solo" one token walks the ring, so all but Init's round are played by
// one process alone and the cap trips inside that solo stretch: the lone
// process must still send its frame (soloBarrier's cap condition), or the
// idle process never learns the run ended.
func TestDistBudgetAbort(t *testing.T) {
	c := graph.Ring(64).Compile()
	walk := func(allStart bool) sim.Factory {
		return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
			return &allocToken{start: allStart || id == 0, limit: math.MaxInt64}
		}
	}
	cases := []struct {
		name  string
		f     sim.Factory
		limit int64
	}{
		{"all-active", walk(true), 1000},
		{"solo", walk(false), 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newEngineMesh(t, c, 2)
			errs := m.run(t, func(_ int, eng *DistEngine) error {
				eng.MaxMessages = tc.limit
				_, _, err := eng.Run(c, tc.f)
				return err
			})
			var got [2]*sim.BudgetError
			for id, err := range errs {
				if !errors.As(err, &got[id]) {
					t.Fatalf("process %d: got %v, want *sim.BudgetError", id, err)
				}
				if got[id].Limit != tc.limit || got[id].Messages < tc.limit {
					t.Errorf("process %d aborted after %d messages under limit %d, want limit %d reached",
						id, got[id].Messages, got[id].Limit, tc.limit)
				}
			}
			if got[0].Messages != got[1].Messages {
				t.Errorf("processes disagree on the delivered count: %d vs %d", got[0].Messages, got[1].Messages)
			}
		})
	}
}
