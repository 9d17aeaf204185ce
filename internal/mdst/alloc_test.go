package mdst

import (
	"errors"
	"io"
	"testing"

	"mdegst/internal/alloctest"
	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// TestRoundEngineCounterAllocFlat pins the round engine's pooled (round,
// opcode) counter slab: an improvement on gnm-256 stopped at engine round
// 40 and one stopped at round 800 must allocate the same up to a constant.
// Every delivery bumps the slab, so a counter that allocated per round or
// per protocol round would show up 20-fold. The stop is a checkpoint
// barrier written to io.Discard.
//
// The protocol's own slices (child lists, deferred lists) grow as the run
// goes on, which would mask the engine's count, so the factory carries
// each node's slice capacity over from the previous run: after the warm-up
// run, the protocol allocates the same per run at any length.
func TestRoundEngineCounterAllocFlat(t *testing.T) {
	g := graph.Gnm(256, 768, 1)
	c := g.Compile()
	t0, err := spanning.BFSTree(g, g.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	d, err := tree.FromTree(t0, c.Index())
	if err != nil {
		t.Fatal(err)
	}
	inner := NewFactory(Hybrid, 0, d)
	prev := make(map[sim.NodeID]*Node, g.N())
	f := func(id sim.NodeID, nbrs []sim.NodeID) sim.Protocol {
		n := inner(id, nbrs).(*Node)
		if old := prev[id]; old != nil {
			n.children = append(old.children[:0], n.children...)
			n.deferred = old.deferred[:0]
		}
		prev[id] = n
		return n
	}
	measure := func(rounds int64) float64 {
		run := func() {
			eng := &sim.EventEngine{Delay: sim.UnitDelay, Checkpoint: &sim.CheckpointSpec{Round: rounds, W: io.Discard}}
			if _, _, err := eng.Run(c, f); !errors.Is(err, sim.ErrCheckpointed) {
				t.Fatalf("run to round %d: %v", rounds, err)
			}
		}
		run() // warm the pooled slabs and the node slices for this length
		return testing.AllocsPerRun(10, run)
	}
	short, long := measure(40), measure(800)
	t.Logf("allocs per run: 40 rounds -> %.0f, 800 rounds -> %.0f", short, long)
	// The slack covers the checkpoint's (kind, round) table, which holds a
	// few more protocol rounds at the later barrier, and pool entries a GC
	// may steal mid-measure.
	if long > short+32 {
		t.Errorf("allocs grew with round count: 40 rounds -> %.0f, 800 rounds -> %.0f", short, long)
	}
}

// TestHybridAllocBudget holds the full improvement protocol's whole-process
// allocations per run to a recorded budget (alloctest's rule) on the round
// engine and on the reference oracle: gnm-96 from the star tree in Hybrid
// mode, compiling the snapshot and converting the start tree inside each
// run.
func TestHybridAllocBudget(t *testing.T) {
	g := graph.Gnm(96, 288, 1)
	t0, err := spanning.StarTree(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		eng    func() sim.Engine
		budget float64
	}{
		{"gnm-96/event-engine", func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }, 1593},
		{"gnm-96/reference-engine", func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UnitDelay, FIFO: true} }, 84039},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alloctest.Check(t, 5, tc.budget, func() {
				c := g.Compile()
				d, err := tree.FromTree(t0, c.Index())
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(tc.eng(), c, d, Hybrid, 0); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
