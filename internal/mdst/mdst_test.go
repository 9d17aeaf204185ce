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

// improve runs mdst.Run over g's snapshot from a map-keyed tree of g, the
// form the sequential builders produce.
func improve(eng sim.Engine, g *graph.Graph, t0 *tree.Tree, mode mdst.Mode, target int) (*mdst.Result, error) {
	c := g.Compile()
	d, err := tree.FromTree(t0, c.Index())
	if err != nil {
		return nil, err
	}
	return mdst.Run(eng, c, d, mode, target)
}

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

func initialTrees(t *testing.T, g *graph.Graph) map[string]*tree.Tree {
	t.Helper()
	out := make(map[string]*tree.Tree)
	var err error
	if out["bfs"], err = spanning.BFSTree(g, g.Nodes()[0]); err != nil {
		t.Fatal(err)
	}
	if out["star"], err = spanning.StarTree(g); err != nil {
		t.Fatal(err)
	}
	if out["random"], err = spanning.RandomST(g, 4242); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestDistributedMatchesSequentialTwin is the central differential test:
// the distributed protocol and its sequential twin must agree exactly —
// same final tree (root, orientation and all), same rounds, same exchanges —
// for every graph family, initial tree and mode.
func TestDistributedMatchesSequentialTwin(t *testing.T) {
	for _, tc := range testGraphs() {
		for tname, t0 := range initialTrees(t, tc.g) {
			for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
				name := fmt.Sprintf("%s/%s/%s", tc.name, tname, mode)
				t.Run(name, func(t *testing.T) {
					res, err := improve(unitEngine(), tc.g, t0, mode, 0)
					if err != nil {
						t.Fatal(err)
					}
					want, stats, err := fr.Twin(tc.g, t0, mode)
					if err != nil {
						t.Fatal(err)
					}
					if !res.Tree.Equal(want) {
						t.Fatalf("trees differ:\ndistributed:\n%v\ntwin:\n%v", res.Tree, want)
					}
					if res.Rounds != stats.Rounds {
						t.Errorf("rounds = %d, twin = %d", res.Rounds, stats.Rounds)
					}
					if res.Swaps != stats.Swaps {
						t.Errorf("swaps = %d, twin = %d", res.Swaps, stats.Swaps)
					}
					if res.FinalDegree > res.InitialDegree {
						t.Errorf("degree increased: %d -> %d", res.InitialDegree, res.FinalDegree)
					}
				})
			}
		}
	}
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
		t0, err := spanning.StarTree(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
			var ref *tree.Tree
			for ename, mk := range engines {
				name := fmt.Sprintf("g%d/%s/%s", gi, mode, ename)
				t.Run(name, func(t *testing.T) {
					res, err := improve(mk(), g, t0, mode, 0)
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
	t0, err := tree.FromParentMap(0, map[graph.NodeID]graph.NodeID{
		0: 0, 1: 0, 2: 0, 6: 0, 3: 1, 4: 1, 5: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := t0.Validate(g); err != nil {
		t.Fatal(err)
	}
	deg0, at := t0.MaxDegree()
	if deg0 != 3 || at[0] != 0 {
		t.Fatalf("setup: max degree %d at %v, want 3 at node 0", deg0, at)
	}
	res, err := improve(unitEngine(), g, t0, mdst.Single, 0)
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
	g := graph.Star(9)
	t0, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi} {
		res, err := improve(unitEngine(), g, t0, mode, 0)
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
	g := graph.Wheel(12)
	t0, err := spanning.StarTree(g)
	if err != nil {
		t.Fatal(err)
	}
	d0, _ := t0.MaxDegree()
	if d0 != 11 {
		t.Fatalf("setup: star tree degree %d, want 11", d0)
	}
	for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi} {
		res, err := improve(unitEngine(), g, t0, mode, 0)
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
	g := graph.Ring(10)
	t0, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := improve(unitEngine(), g, t0, mdst.Single, 0)
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
		t0, err := spanning.BFSTree(g, g.Nodes()[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi} {
			res, err := improve(unitEngine(), g, t0, mode, 0)
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
		g := graph.Gnp(18, 0.3, 200+seed)
		t0, err := spanning.StarTree(g)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fr.Twin(g, t0, mdst.Multi)
		if err != nil {
			t.Fatal(err)
		}
		res, err := improve(&sim.AsyncEngine{}, g, t0, mdst.Multi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tree.Equal(want) {
			t.Errorf("seed %d: async result differs from twin", seed)
		}
	}
}
