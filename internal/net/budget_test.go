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
// idle process never learns the run ended. Both processes must report the
// delivered count EventEngine reports on the same protocol and budget:
// the budget, exactly, since each round holds more deliveries than the
// budget has left when it trips.
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
			var want *sim.BudgetError
			if _, _, err := (&sim.EventEngine{MaxMessages: tc.limit}).Run(c, tc.f); !errors.As(err, &want) {
				t.Fatalf("EventEngine: got %v, want *sim.BudgetError", err)
			}
			if want.Messages != tc.limit {
				t.Fatalf("EventEngine aborted after %d messages, want the budget %d", want.Messages, tc.limit)
			}
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
				if got[id].Limit != tc.limit || got[id].Messages != want.Messages {
					t.Errorf("process %d aborted after %d messages under limit %d, want %d under limit %d as EventEngine",
						id, got[id].Messages, got[id].Limit, want.Messages, tc.limit)
				}
			}
		})
	}
}
