package mdst_test

import (
	"fmt"
	"testing"

	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

func unitEngine() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay} }

func testGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"path6", graph.Path(6)},
		{"ring8", graph.Ring(8)},
		{"star10", graph.Star(10)},
		{"wheel12", graph.Wheel(12)},
		{"complete8", graph.Complete(8)},
		{"grid4x4", graph.Grid(4, 4)},
		{"hyper4", graph.Hypercube(4)},
		{"lollipop", graph.Lollipop(5, 6)},
		{"caterpillar", graph.Caterpillar(6, 2)},
		{"bipartite", graph.CompleteBipartite(3, 7)},
		{"gnp20", graph.Gnp(20, 0.3, 9)},
		{"gnp40sparse", graph.Gnp(40, 0.1, 10)},
		{"gnm30", graph.Gnm(30, 60, 11)},
		{"ba25", graph.BarabasiAlbert(25, 2, 12)},
		{"geo20", graph.RandomGeometric(20, 0.4, 13)},
		{"hamchords", graph.HamiltonianPlusChords(24, 30, 14)},
		{"tree15", graph.RandomTree(15, 15)},
	}
}

func initialTrees(t *testing.T, c *graph.CSR) map[string]*tree.Dense {
	t.Helper()
	out := make(map[string]*tree.Dense)
	var err error
	if out["bfs"], err = spanning.BFSTree(c, c.Index().ID(0)); err != nil {
		t.Fatal(err)
	}
	if out["star"], err = spanning.StarTree(c); err != nil {
		t.Fatal(err)
	}
	if out["random"], err = spanning.RandomST(c, 4242); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDistributedMatchesSequentialTwin is the central differential test:
// the distributed protocol and its sequential twin must agree exactly —
// same final tree (root, orientation and all), same rounds, same exchanges,
// and one deg per non-root node in exactly the rounds the twin says run
// the SearchDegree convergecast (DESIGN.md deviation 9) — for every graph
// family, initial tree and mode.
func TestDistributedMatchesSequentialTwin(t *testing.T) {
	for _, tc := range testGraphs() {
		c := tc.g.Compile()
		for tname, t0 := range initialTrees(t, c) {
			for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
				name := fmt.Sprintf("%s/%s/%s", tc.name, tname, mode)
				t.Run(name, func(t *testing.T) {
					res := matchTwin(t, c, t0, mode)
					if res.FinalDegree > res.InitialDegree {
						t.Errorf("degree increased: %d -> %d", res.InitialDegree, res.FinalDegree)
					}
				})
			}
		}
	}
}

// TestFloodStartMatchesTwin holds the larger flood-started runs to the
// twin as TestDistributedMatchesSequentialTwin does: gnm-1k and ba-2k in
// Hybrid mode, grid-4k in Single mode, where most rounds take their owner
// from the previous round.
func TestFloodStartMatchesTwin(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		mode mdst.Mode
	}{
		{"gnm-1k", graph.Gnm(1024, 3072, 1), mdst.Hybrid},
		{"ba-2k", graph.BarabasiAlbert(2048, 2, 1), mdst.Hybrid},
		{"grid-4k", graph.Grid(64, 64), mdst.Single},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.g.Compile()
			t0, _, err := spanning.Build(unitEngine(), c, spanning.NewFloodFactory(c, c.Index().ID(0)))
			if err != nil {
				t.Fatal(err)
			}
			matchTwin(t, c, t0, tc.mode)
		})
	}
}

// matchTwin runs the protocol and its twin from t0 and requires the same
// tree, rounds and swaps, and (n-1)·Searches deg records.
func matchTwin(t *testing.T, c *graph.CSR, t0 *tree.Dense, mode mdst.Mode) *mdst.Result {
	t.Helper()
	res, err := mdst.Run(unitEngine(), c, t0, mode, 0)
	if err != nil {
		t.Fatal(err)
	}
	twin, stats, err := fr.Twin(c, t0, mode, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Tree.Equal(twin) {
		t.Fatalf("trees differ:\ndistributed:\n%v\ntwin:\n%v", res.Tree, twin)
	}
	if res.Rounds != stats.Rounds {
		t.Errorf("rounds = %d, twin = %d", res.Rounds, stats.Rounds)
	}
	if res.Swaps != stats.Swaps {
		t.Errorf("swaps = %d, twin = %d", res.Swaps, stats.Swaps)
	}
	if got, want := res.Report.ByKind["mdst.deg"], int64(c.N()-1)*int64(stats.Searches); got != want {
		t.Errorf("deg records = %d, want (n-1)·%d = %d", got, stats.Searches, want)
	}
	return res
}

// contestedGraph builds a graph and start tree in which two owners hanging
// from one fragment both propose the same endpoint of it in the first
// Multi round (DESIGN.md deviation 4). Node 0 is the acting root, of
// degree 4, and its child 1 roots the fragment G = {1, 7, 8, 15}. Owner b,
// a child of 1, and owner c, a child of 7, have degree 4 and three leaf
// children each. The only non-tree edges are 9–8 (from b's child 9) and
// 12–8 (from c's child 12): both lead into G, so b and c both claim node
// 8. The smaller of b and c must win; node 8 then has degree 3, which
// leaves the other edge unusable for good. It returns the winner's edge
// and the loser's.
func contestedGraph(t *testing.T, b, c graph.NodeID) (cg *graph.CSR, t0 *tree.Dense, won, lost [2]graph.NodeID) {
	t.Helper()
	g := graph.New()
	parent := map[graph.NodeID]graph.NodeID{1: 0, 2: 0, 3: 0, 4: 0, b: 1, 7: 1, c: 7, 8: 7, 15: 8,
		9: b, 10: b, 11: b, 12: c, 13: c, 14: c}
	for v, p := range parent {
		g.MustAddEdge(v, p)
	}
	g.MustAddEdge(9, 8)
	g.MustAddEdge(12, 8)
	cg = g.Compile()
	dense := make([]int32, cg.N())
	dense[0] = tree.NoParent
	for v, p := range parent {
		dense[cg.Index().MustOf(v)] = cg.Index().MustOf(p)
	}
	t0, err := tree.FromParentDense(cg.Index(), cg.Index().MustOf(0), dense)
	if err != nil {
		t.Fatal(err)
	}
	won, lost = [2]graph.NodeID{9, 8}, [2]graph.NodeID{12, 8}
	if c < b {
		won, lost = lost, won
	}
	return cg, t0, won, lost
}

// TestDeliveryOrderIndependence: the final tree must not depend on the
// engine, the delay distribution, or FIFO vs non-FIFO delivery.
func TestDeliveryOrderIndependence(t *testing.T) {
	engines := map[string]func() sim.Engine{
		"unit":    func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay} },
		"rand1":   func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.02), Seed: 1, FIFO: true} },
		"rand2":   func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.02), Seed: 2, FIFO: true} },
		"nofifo1": func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.02), Seed: 3, FIFO: false} },
		"nofifo2": func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.02), Seed: 4, FIFO: false} },
		"async":   func() sim.Engine { return &sim.AsyncEngine{} },
	}
	graphs := []*graph.Graph{
		graph.Gnp(24, 0.25, 101),
		graph.Wheel(16),
		graph.BarabasiAlbert(20, 3, 102),
	}
	for gi, g := range graphs {
		c := g.Compile()
		t0, err := spanning.StarTree(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
			var ref *tree.Dense
			for ename, mk := range engines {
				name := fmt.Sprintf("g%d/%s/%s", gi, mode, ename)
				t.Run(name, func(t *testing.T) {
					res, err := mdst.Run(mk(), c, t0, mode, 0)
					if err != nil {
						t.Fatal(err)
					}
					if ref == nil {
						ref = res.Tree
						return
					}
					if !res.Tree.Equal(ref) {
						t.Errorf("final tree depends on delivery order")
					}
				})
			}
		}
	}
	// Two owners claim one endpoint: the smaller identity wins it on every
	// engine, whichever of the two hangs higher in the fragment.
	for _, owners := range [][2]graph.NodeID{{5, 6}, {6, 5}} {
		c, t0, won, lost := contestedGraph(t, owners[0], owners[1])
		for _, mode := range []mdst.Mode{mdst.Multi, mdst.Hybrid} {
			for ename, mk := range engines {
				t.Run(fmt.Sprintf("contested%d%d/%s/%s", owners[0], owners[1], mode, ename), func(t *testing.T) {
					res, err := mdst.Run(mk(), c, t0, mode, 0)
					if err != nil {
						t.Fatal(err)
					}
					has := func(e [2]graph.NodeID) bool {
						return res.Tree.HasEdge(c.Index().MustOf(e[0]), c.Index().MustOf(e[1]))
					}
					if !has(won) || has(lost) {
						t.Errorf("the smaller owner's edge %v did not win over %v:\n%v", won, lost, res.Tree)
					}
				})
			}
		}
	}
}

// TestFigure1Exchange reproduces the paper's Figure 1: a root p of maximum
// degree with children x and x', where an outgoing edge between the two
// fragments lets the exchange lower p's degree.
func TestFigure1Exchange(t *testing.T) {
	// p=0 with children x=1, x', and another; the fragment under x contains
	// C=3,D=4; x'=2 leads to E=5. Non-tree edge (4,5) joins the fragments.
	g := graph.New()
	g.MustAddEdge(0, 1) // p-x
	g.MustAddEdge(0, 2) // p-x'
	g.MustAddEdge(0, 6) // p-third child: degree 3
	g.MustAddEdge(1, 3) // x-C
	g.MustAddEdge(1, 4) // x-D
	g.MustAddEdge(4, 5) // D-E: the improving outgoing edge
	g.MustAddEdge(2, 5) // x'-E
	c := g.Compile()
	d, err := tree.FromParentDense(c.Index(), 0, []int32{tree.NoParent, 0, 0, 1, 1, 2, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(c); err != nil {
		t.Fatal(err)
	}
	deg0, at := d.MaxDegree(nil)
	if deg0 != 3 || at[0] != 0 {
		t.Fatalf("setup: max degree %d at %v, want 3 at node 0", deg0, at)
	}
	res, err := mdst.Run(unitEngine(), c, d, mdst.Single, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalDegree != 2 {
		t.Errorf("final degree = %d, want 2 (tree becomes a chain)", res.FinalDegree)
	}
	if !res.Tree.HasEdge(4, 5) {
		t.Errorf("exchange should have added edge (4,5); tree:\n%v", res.Tree)
	}
	if res.Tree.HasEdge(0, 1) {
		t.Errorf("exchange should have removed a root edge toward the reporting fragment")
	}
}

// TestStarWorstCase: on the star graph the unique spanning tree has degree
// n-1 and no improvement is possible; the protocol must terminate after the
// first round without touching the tree.
func TestStarWorstCase(t *testing.T) {
	c := graph.Star(9).Compile()
	t0, err := spanning.BFSTree(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi} {
		res, err := mdst.Run(unitEngine(), c, t0, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalDegree != 8 || res.Swaps != 0 {
			t.Errorf("%v: degree %d swaps %d, want 8 and 0", mode, res.FinalDegree, res.Swaps)
		}
	}
}

// TestWheelImprovesHubStar: starting from the hub star of a wheel (degree
// n-1), the protocol must bring the degree down to at most 3 — the classic
// motivating example.
func TestWheelImprovesHubStar(t *testing.T) {
	c := graph.Wheel(12).Compile()
	t0, err := spanning.StarTree(c)
	if err != nil {
		t.Fatal(err)
	}
	d0, _ := t0.MaxDegree(nil)
	if d0 != 11 {
		t.Fatalf("setup: star tree degree %d, want 11", d0)
	}
	for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi} {
		res, err := mdst.Run(unitEngine(), c, t0, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalDegree > 3 {
			t.Errorf("%v: final degree %d, want <= 3", mode, res.FinalDegree)
		}
	}
}

// TestChainStopsAtK2: a ring's spanning trees are chains (k=2); the
// protocol must stop in one round.
func TestChainStopsAtK2(t *testing.T) {
	c := graph.Ring(10).Compile()
	t0, err := spanning.BFSTree(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mdst.Run(unitEngine(), c, t0, mdst.Single, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Swaps != 0 {
		t.Errorf("rounds=%d swaps=%d, want 1 round, 0 swaps", res.Rounds, res.Swaps)
	}
}

// TestTinyNetworks covers the degenerate sizes.
func TestTinyNetworks(t *testing.T) {
	one := graph.New()
	one.AddNode(7)
	for _, g := range []*graph.Graph{one, graph.Path(2), graph.Path(3), graph.Complete(3)} {
		c := g.Compile()
		t0, err := spanning.BFSTree(c, g.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi} {
			res, err := mdst.Run(unitEngine(), c, t0, mode, 0)
			if err != nil {
				t.Fatalf("n=%d: %v", g.N(), err)
			}
			if res.Rounds != 1 {
				t.Errorf("n=%d %v: rounds = %d, want 1", g.N(), mode, res.Rounds)
			}
		}
	}
}

// TestAsyncRace runs the protocol under the goroutine engine (with -race)
// over several seeds and graphs.
func TestAsyncRace(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		c := graph.Gnp(18, 0.3, 200+seed).Compile()
		t0, err := spanning.StarTree(c)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fr.Twin(c, t0, mdst.Multi, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mdst.Run(&sim.AsyncEngine{}, c, t0, mdst.Multi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tree.Equal(want) {
			t.Errorf("seed %d: async result differs from twin", seed)
		}
	}
}
