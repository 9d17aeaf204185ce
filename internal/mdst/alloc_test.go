package mdst

import (
	"errors"
	"io"
	"testing"

	"mdegst/internal/alloctest"
	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// TestRoundEngineCounterAllocFlat pins the round engine's pooled (round,
// opcode) counter slab: an improvement on gnm-256 stopped at engine round
// 40 and one stopped at round 800 must allocate the same up to a constant,
// and so must completed runs of 40 and 800 rounds, whose reports are
// finalized. Every delivery bumps the slab, so a counter that allocated
// per round or per protocol round would show up 20-fold. The stop is a
// checkpoint barrier written to io.Discard.
//
// The protocol's own slices (child and size lists, deferred lists) grow as the run
// goes on, which would mask the engine's count, so the factory carries
// each node's slice capacity over from the previous run: after the warm-up
// run, the protocol allocates the same per run at any length. NewFactory
// hands out the same slab slot for a node on every run and resets it, so
// the wrapper copies the slot's previous-run lists out before the reset
// and refills them after.
func TestRoundEngineCounterAllocFlat(t *testing.T) {
	g := graph.Gnm(256, 768, 1)
	c := g.Compile()
	d, err := spanning.BFSTree(c, g.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	inner := NewFactory(c, Hybrid, 0, d)
	prev := make(map[sim.NodeID]*Node, g.N())
	f := func(id sim.NodeID, nbrs []sim.NodeID) sim.Protocol {
		var old Node
		if p := prev[id]; p != nil {
			old = *p
		}
		n := inner(id, nbrs).(*Node)
		if prev[id] != nil {
			n.children = append(old.children[:0], n.children...)
			n.sizes = append(old.sizes[:0], n.sizes...)
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
	// The slack covers pool entries a GC may steal mid-measure.
	if long > short+32 {
		t.Errorf("allocs grew with round count: 40 rounds -> %.0f, 800 rounds -> %.0f", short, long)
	}

	// A completed run: the finalized report lists one (kind, round) entry
	// per round, in one allocation at any length.
	ring := graph.Ring(8).Compile()
	complete := func(rounds int64) float64 {
		p := &relay{rounds: rounds}
		f := func(sim.NodeID, []sim.NodeID) sim.Protocol { return p }
		run := func() {
			_, rep, err := (&sim.EventEngine{Delay: sim.UnitDelay}).Run(ring, f)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.KindRounds()) != int(rounds) {
				t.Fatalf("%d (kind, round) entries, want %d", len(rep.KindRounds()), rounds)
			}
		}
		run() // warm the pooled slabs for this length
		return testing.AllocsPerRun(10, run)
	}
	short, long = complete(40), complete(800)
	t.Logf("allocs per completed run: 40 rounds -> %.0f, 800 rounds -> %.0f", short, long)
	if long > short+32 {
		t.Errorf("finalized report's allocs grew with round count: 40 rounds -> %.0f, 800 rounds -> %.0f", short, long)
	}
}

// relay passes one mdst.term record back and forth, its round word
// counting the hops, until hop rounds: a completed run of that many engine
// and protocol rounds. One instance serves every node.
type relay struct{ rounds int64 }

func (p *relay) Init(ctx sim.Context) {
	if ctx.ID() == 0 {
		sim.Send(ctx, ctx.Neighbors()[0], sim.Msg(opTerm, 1))
	}
}

func (p *relay) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	if m.W[0] < p.rounds {
		sim.Send(ctx, from, sim.Msg(opTerm, m.W[0]+1))
	}
}

// TestHybridAllocBudget holds the full improvement protocol's whole-process
// allocations per run to a recorded budget (alloctest's rule) on the round
// engine and on the reference oracle: gnm-96 from the star tree in Hybrid
// mode, compiling the snapshot inside each run. The start tree is built
// once, over a snapshot of its own: Run accepts a tree over any index that
// encodes the same NodeID bijection.
func TestHybridAllocBudget(t *testing.T) {
	g := graph.Gnm(96, 288, 1)
	t0, err := spanning.StarTree(g.Compile())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		eng    func() sim.Engine
		budget float64
	}{
		{"gnm-96/event-engine", func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }, 564},
		{"gnm-96/reference-engine", func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UnitDelay, FIFO: true} }, 43973},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alloctest.Check(t, 5, tc.budget, func() {
				if _, err := Run(tc.eng(), g.Compile(), t0, Hybrid, 0); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
