package spanning

import (
	"maps"
	"slices"
	"testing"

	"mdegst/internal/alloctest"
	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// requireSameReport compares everything deterministic between two runs of
// the same execution (Wall always differs).
func requireSameReport(t *testing.T, what string, a, b *sim.Report) {
	t.Helper()
	if a.Messages != b.Messages || a.Words != b.Words || a.MaxWords != b.MaxWords ||
		a.CausalDepth != b.CausalDepth || a.VirtualTime != b.VirtualTime {
		t.Fatalf("%s: scalar counters diverged:\n%v\n%v", what, a, b)
	}
	if !maps.Equal(a.ByKind, b.ByKind) || !slices.Equal(a.KindRounds(), b.KindRounds()) ||
		!slices.Equal(a.SentBy(), b.SentBy()) {
		t.Fatalf("%s: breakdowns diverged:\n%v\n%v", what, a, b)
	}
}

// TestBuildCompiledDenseMatchesMap holds the build path — dense engine
// result, slab flood factory, Extract — on every deterministic engine tier
// to the exact tree and report of a differential oracle: ReferenceEngine
// under the same delay model for the engines trace-equivalent to it, the
// unit EventEngine for ReferenceEngine itself. (The name predates the
// removal of the map-keyed build path it used to be compared against; that
// comparison is pinned by mdst's TestRunPathPinned digests.)
func TestBuildCompiledDenseMatchesMap(t *testing.T) {
	unit := func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UnitDelay} }
	engines := map[string]struct{ eng, oracle func() sim.Engine }{
		"event-unit": {func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay} }, unit},
		"event-random": {
			func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.2), Seed: 7, FIFO: true} },
			func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UniformDelay(0.2), Seed: 7, FIFO: true} },
		},
		"reference": {func() sim.Engine { return &sim.ReferenceEngine{} }, func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay} }},
	}
	for gname, g := range testGraphs() {
		c := g.Compile()
		root := g.Nodes()[0]
		for ename, e := range engines {
			t.Run(gname+"/"+ename, func(t *testing.T) {
				// Fresh engines and factories per run so scratch reuse,
				// RNG seeding and the factory slab cannot couple the
				// two runs.
				want, wantRep, err := Build(e.oracle(), c, NewFloodFactory(c, root))
				if err != nil {
					t.Fatal(err)
				}
				got, gotRep, err := Build(e.eng(), c, NewFloodFactory(c, root))
				if err != nil {
					t.Fatal(err)
				}
				if err := got.Validate(c); err != nil {
					t.Fatal(err)
				}
				if !want.Equal(got) {
					t.Fatalf("trees diverged\noracle:\n%s\nengine:\n%s", want, got)
				}
				requireSameReport(t, gname+"/"+ename, wantRep, gotRep)
			})
		}
	}
}

// TestExtractDenseOtherProtocols runs the remaining spanning protocols
// through the dense extraction to show it is not flood-specific.
func TestExtractDenseOtherProtocols(t *testing.T) {
	g := graph.Gnm(40, 90, 2)
	c := g.Compile()
	root := g.Nodes()[0]
	for pname, f := range map[string]sim.Factory{
		"dfs":      NewDFSFactory(root),
		"ghs":      NewGHSFactory(),
		"election": NewElectionFactory(),
	} {
		d, _, err := Build(&sim.EventEngine{Delay: sim.UnitDelay}, c, f)
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		if err := d.Validate(c); err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
	}
}

// TestFloodFactorySnapReusable runs one slab factory through several
// sequential runs: every run must reset the slab states and produce the
// identical tree to a fresh factory's.
func TestFloodFactorySnapReusable(t *testing.T) {
	g := graph.Gnp(50, 0.12, 17)
	c := g.Compile()
	root := g.Nodes()[0]
	f := NewFloodFactory(c, root)
	want, _, err := Build(&sim.EventEngine{Delay: sim.UnitDelay}, c, NewFloodFactory(c, root))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 3; trial++ {
		d, _, err := Build(&sim.EventEngine{Delay: sim.UnitDelay}, c, f)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !want.Equal(d) {
			t.Fatalf("trial %d: slab factory produced a different tree", trial)
		}
	}
}

// fakeTreeNode lets the error-path tests hand Extract arbitrary
// tree views.
type fakeTreeNode struct {
	parent sim.NodeID
	isRoot bool
	fin    bool
}

func (f *fakeTreeNode) Init(sim.Context)                           {}
func (f *fakeTreeNode) Recv(sim.Context, sim.NodeID, *sim.WireMsg) {}
func (f *fakeTreeNode) TreeInfo() (sim.NodeID, []sim.NodeID, bool) {
	return f.parent, nil, f.isRoot
}
func (f *fakeTreeNode) Finished() bool { return f.fin }

type bareProto struct{}

func (bareProto) Init(sim.Context)                           {}
func (bareProto) Recv(sim.Context, sim.NodeID, *sim.WireMsg) {}

// TestExtractDenseRejects exercises every validation branch of the dense
// extraction on Path(4) (identities 0-1-2-3).
func TestExtractDenseRejects(t *testing.T) {
	c := graph.Path(4).Compile()
	chain := func(mut func(ps []*fakeTreeNode)) []sim.Protocol {
		ps := []*fakeTreeNode{
			{isRoot: true, fin: true},
			{parent: 0, fin: true},
			{parent: 1, fin: true},
			{parent: 2, fin: true},
		}
		if mut != nil {
			mut(ps)
		}
		out := make([]sim.Protocol, len(ps))
		for i, p := range ps {
			out[i] = p
		}
		return out
	}
	if d, err := Extract(c, chain(nil)); err != nil || d == nil {
		t.Fatalf("valid chain rejected: %v", err)
	}
	cases := map[string][]sim.Protocol{
		"short slice": chain(nil)[:3],
		"not a tree node": func() []sim.Protocol {
			ps := chain(nil)
			ps[2] = bareProto{}
			return ps
		}(),
		"unfinished":      chain(func(ps []*fakeTreeNode) { ps[3].fin = false }),
		"no root":         chain(func(ps []*fakeTreeNode) { ps[0].isRoot = false; ps[0].parent = 1 }),
		"two roots":       chain(func(ps []*fakeTreeNode) { ps[2].isRoot = true }),
		"unknown parent":  chain(func(ps []*fakeTreeNode) { ps[3].parent = 99 }),
		"cycle":           chain(func(ps []*fakeTreeNode) { ps[2].parent = 3 }),
		"non-edge parent": chain(func(ps []*fakeTreeNode) { ps[3].parent = 0 }),
	}
	for name, protos := range cases {
		if _, err := Extract(c, protos); err == nil {
			t.Errorf("%s: accepted invalid states", name)
		}
	}
}

// TestFloodDenseTrafficInvariantAllocs pins the build path's allocation
// behaviour: with the node count held fixed, quadrupling the edge count
// (and so roughly the message count) must not move the per-run allocation
// count by more than a twentieth of an allocation per extra message — the
// hot loops are allocation-free, and what remains is per-node or
// per-round bookkeeping — and the total stays a tenth of what the deleted
// map-keyed path allocated.
func TestFloodDenseTrafficInvariantAllocs(t *testing.T) {
	measure := func(m int) (float64, int64) {
		c := graph.Gnm(600, m, 5).Compile()
		f := NewFloodFactory(c, c.Index().ID(0))
		var msgs int64
		run := func() {
			_, rep, err := Build(&sim.EventEngine{Delay: sim.UnitDelay}, c, f)
			if err != nil {
				t.Fatal(err)
			}
			msgs = rep.Messages
		}
		run() // warm the engine scratch pools
		return testing.AllocsPerRun(5, run), msgs
	}
	aSparse, mSparse := measure(1800)
	aDense, mDense := measure(7200)
	t.Logf("%.0f allocs @ %d msgs (sparse), %.0f allocs @ %d msgs (dense)", aSparse, mSparse, aDense, mDense)
	if mDense <= mSparse {
		t.Fatalf("workloads not ordered by traffic: %d vs %d messages", mSparse, mDense)
	}
	if marginal := (aDense - aSparse) / float64(mDense-mSparse); marginal > 0.05 {
		t.Errorf("allocations scale with traffic: %.4f allocs per extra message", marginal)
	}
	// The map-keyed build path this one replaced allocated 1390 times per
	// run on the dense workload; its 10x reduction stays an absolute cap.
	const mapPathAllocs = 1390
	if aDense*10 > mapPathAllocs {
		t.Errorf("build path allocates %.0f per run: want at most a tenth of the map path's %d", aDense, mapPathAllocs)
	}
}

// TestFloodAllocBudget holds the flood build's whole-process allocations
// per run to a recorded budget (alloctest's rule), workload by workload:
// the scheduler tiers against the reference oracle on gnm-256 under unit
// and random delays, and the unit-delay round engine from 4k to 1M nodes.
// The gnm-256 rows compile the snapshot each run; the large rows compile
// once, since recompiling a 100k-node CSR would dwarf the flood. Every run
// builds a fresh slab factory.
func TestFloodAllocBudget(t *testing.T) {
	unit := func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }
	ref := func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UnitDelay, FIFO: true} }
	uniform := func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.05), FIFO: true, Seed: 1} }
	refUniform := func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UniformDelay(0.05), FIFO: true, Seed: 1} }
	gnm256 := func() *graph.Graph { return graph.Gnm(256, 1024, 1) }
	for _, tc := range []struct {
		name      string
		gen       func() *graph.Graph
		eng       func() sim.Engine
		recompile bool // compile the snapshot inside each measured run
		large     bool // ≥100k nodes: skipped under -short
		budget    float64
	}{
		{"gnm-256/event-engine", gnm256, unit, true, false, 27},
		{"gnm-256/reference-engine", gnm256, ref, true, false, 4684},
		{"gnm-256/event-uniform", gnm256, uniform, true, false, 30},
		{"gnm-256/reference-uniform", gnm256, refUniform, true, false, 4684},
		{"gnm-4096/event-engine", func() *graph.Graph { return graph.Gnm(4096, 16384, 1) }, unit, false, false, 17},
		{"ba-16384/event-engine", func() *graph.Graph { return graph.BarabasiAlbert(16384, 2, 1) }, unit, false, false, 17},
		{"grid-100k/event-engine", func() *graph.Graph { return graph.Grid(316, 316) }, unit, false, true, 19},
		{"grid-1M/event-engine", func() *graph.Graph { return graph.Grid(1000, 1000) }, unit, false, true, 19},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large && testing.Short() {
				t.Skip("flood of ≥100k nodes")
			}
			g := tc.gen()
			c := g.Compile()
			root := g.Nodes()[0]
			runs := 5
			if tc.large {
				runs = 1
			}
			alloctest.Check(t, runs, tc.budget, func() {
				if tc.recompile {
					c = g.Compile()
				}
				if _, _, err := Build(tc.eng(), c, NewFloodFactory(c, root)); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
