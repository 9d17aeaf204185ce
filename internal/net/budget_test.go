package net

import (
	"errors"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// The guard-test token: a walk like allocToken whose records carry a
// protocol round that rises every 8 hops until round 3, where the walk
// stays forever.
var guardWire = sim.Register("netguard",
	sim.OpSpec{Kind: "netguard.token", MinPayload: 2, MaxPayload: 2, Rounded: true},
)

func guardTokenMsg(hops int64) sim.WireMsg {
	return sim.WireMsg{Op: guardWire.Op(0), Nw: 2, W: [sim.MaxPayloadWords]int64{min(hops/8, 3), hops}}
}

type guardToken struct{ start bool }

func (n *guardToken) Init(ctx sim.Context) {
	if n.start {
		sim.Send(ctx, ctx.Neighbors()[len(ctx.Neighbors())-1], guardTokenMsg(1))
	}
}

func (n *guardToken) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	ns := ctx.Neighbors()
	next := ns[0]
	if next == from && len(ns) > 1 {
		next = ns[1]
	}
	sim.Send(ctx, next, guardTokenMsg(m.W[1]+1))
}

func (n *guardToken) WalkState(s *sim.State) { s.Bool(&n.start) }

// TestDistBudgetAbort runs token walks stuck in protocol round 3 on a
// two-process loopback mesh. Both processes must abort with the
// *sim.BudgetError EventEngine's round tier returns on the same protocol,
// and neither may hang waiting for the other. The window follows from the
// ring (16·(64+64) deliveries), and the tier aborts at the barrier before
// the round that would pass it: one window after the round that opened
// round 3 (hop 24). In "all-active" every node walks a token, so both
// processes play every round and the guard trips at a full barrier. In
// "solo" one token walks the ring, so all but Init's round are played by
// one process alone: round 3 opens inside a solo stretch, which the idle
// process learns only from the lone process's next frame, and the guard
// trips inside such a stretch, where the lone process must still send its
// frame (soloBarrier's guard condition) or the idle process never learns
// the run ended.
func TestDistBudgetAbort(t *testing.T) {
	c := graph.Ring(64).Compile()
	walk := func(allStart bool) sim.Factory {
		return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
			return &guardToken{start: allStart || id == 0}
		}
	}
	cases := []struct {
		name     string
		f        sim.Factory
		perRound int64
	}{
		{"all-active", walk(true), 64},
		{"solo", walk(false), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			window := sim.Window(c, 3)
			want := sim.BudgetError{Messages: 24*tc.perRound + window, Limit: window, Rounds: 3}
			var be *sim.BudgetError
			if _, _, err := (&sim.EventEngine{}).Run(c, tc.f); !errors.As(err, &be) {
				t.Fatalf("EventEngine: got %v, want *sim.BudgetError", err)
			}
			if *be != want || window != 2048 {
				t.Fatalf("EventEngine aborted at %+v, want %+v (window %d, want 2048)", *be, want, window)
			}
			m := newEngineMesh(t, c, 2)
			errs := m.run(t, func(_ int, eng *DistEngine) error {
				_, _, err := eng.Run(c, tc.f)
				return err
			})
			for id, err := range errs {
				var got *sim.BudgetError
				if !errors.As(err, &got) {
					t.Fatalf("process %d: got %v, want *sim.BudgetError", id, err)
				}
				if *got != want {
					t.Errorf("process %d aborted at %+v, want %+v as EventEngine", id, *got, want)
				}
			}
		})
	}
}
