package spanning

import (
	"sort"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/tree"
)

func testGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"single":     singleNode(),
		"pair":       graph.Path(2),
		"path8":      graph.Path(8),
		"ring9":      graph.Ring(9),
		"star12":     graph.Star(12),
		"wheel10":    graph.Wheel(10),
		"grid4x5":    graph.Grid(4, 5),
		"complete7":  graph.Complete(7),
		"hyper4":     graph.Hypercube(4),
		"gnp30":      graph.Gnp(30, 0.2, 1),
		"gnm40":      graph.Gnm(40, 90, 2),
		"geo25":      graph.RandomGeometric(25, 0.35, 3),
		"ba30":       graph.BarabasiAlbert(30, 2, 4),
		"lollipop":   graph.Lollipop(6, 7),
		"bipartite":  graph.CompleteBipartite(4, 6),
		"relabelled": relabelled(),
	}
}

func singleNode() *graph.Graph {
	g := graph.New()
	g.AddNode(0)
	return g
}

func relabelled() *graph.Graph {
	g, _ := graph.RelabelRandom(graph.Gnp(20, 0.3, 5), 6)
	return g
}

func protocolFactories(c *graph.CSR) map[string]sim.Factory {
	root := c.Source().Nodes()[0]
	return map[string]sim.Factory{
		"flood":    NewFloodFactory(c, root),
		"dfs":      NewDFSFactory(root),
		"ghs":      NewGHSFactory(),
		"election": NewElectionFactory(),
	}
}

func testEngines() map[string]sim.Engine {
	return map[string]sim.Engine{
		"event-unit":   &sim.EventEngine{Delay: sim.UnitDelay},
		"event-random": &sim.EventEngine{Delay: sim.UniformDelay(0.05), Seed: 11, FIFO: true},
		"event-nofifo": &sim.EventEngine{Delay: sim.UniformDelay(0.05), Seed: 13, FIFO: false},
		"async":        &sim.AsyncEngine{},
	}
}

// buildTree runs Build over c and returns the map-keyed view of the tree
// that the assertions below read.
func buildTree(eng sim.Engine, c *graph.CSR, f sim.Factory) (*tree.Tree, *sim.Report, error) {
	d, rep, err := Build(eng, c, f)
	if err != nil {
		return nil, nil, err
	}
	return d.ToTree(), rep, nil
}

// TestProtocolsProduceSpanningTrees runs every protocol over every graph on
// every engine and validates the result.
func TestProtocolsProduceSpanningTrees(t *testing.T) {
	for gname, g := range testGraphs() {
		c := g.Compile()
		for pname, factory := range protocolFactories(c) {
			for ename, eng := range testEngines() {
				if pname == "ghs" && ename == "event-nofifo" {
					continue // GHS assumes FIFO channels, like the original
				}
				name := gname + "/" + pname + "/" + ename
				t.Run(name, func(t *testing.T) {
					st, rep, err := buildTree(eng, c, factory)
					if err != nil {
						t.Fatal(err)
					}
					if err := st.Validate(g); err != nil {
						t.Fatal(err)
					}
					if rep.Messages == 0 && g.N() > 1 {
						t.Error("no messages exchanged")
					}
				})
			}
		}
	}
}

// TestFloodUnitDelayIsBFS checks that the flooding tree under unit delays is
// a breadth-first tree: every node's depth equals its BFS distance.
func TestFloodUnitDelayIsBFS(t *testing.T) {
	g := graph.Gnp(40, 0.15, 21)
	c := g.Compile()
	root := g.Nodes()[0]
	st, _, err := buildTree(&sim.EventEngine{Delay: sim.UnitDelay}, c, NewFloodFactory(c, root))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BFSTree(g, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Nodes() {
		if st.Depth(v) != want.Depth(v) {
			t.Errorf("node %d: flood depth %d, BFS depth %d", v, st.Depth(v), want.Depth(v))
		}
	}
}

// TestDFSDeterministicAcrossEngines relies on the token being sequential:
// the DFS tree must not depend on delays at all.
func TestDFSDeterministicAcrossEngines(t *testing.T) {
	g := graph.Gnp(30, 0.2, 33)
	root := g.Nodes()[0]
	c := g.Compile()
	var trees []*tree.Tree
	for _, eng := range testEngines() {
		st, _, err := buildTree(eng, c, NewDFSFactory(root))
		if err != nil {
			t.Fatal(err)
		}
		trees = append(trees, st)
	}
	for i := 1; i < len(trees); i++ {
		if !trees[0].Equal(trees[i]) {
			t.Fatal("DFS trees differ across engines")
		}
	}
	// And it matches the sequential DFS with the same neighbour order.
	want, err := DFSTree(g, root)
	if err != nil {
		t.Fatal(err)
	}
	if !trees[0].Equal(want) {
		t.Error("distributed DFS differs from sequential DFS")
	}
}

// kruskalLex computes the MST under lexicographic edge weights — the
// reference for GHS.
func kruskalLex(g *graph.Graph) []graph.Edge {
	edges := g.Edges() // already sorted lexicographically = by weight
	parent := make(map[graph.NodeID]graph.NodeID)
	var find func(graph.NodeID) graph.NodeID
	find = func(x graph.NodeID) graph.NodeID {
		for parent[x] != x {
			x = parent[x]
		}
		return x
	}
	for _, v := range g.Nodes() {
		parent[v] = v
	}
	var mst []graph.Edge
	for _, e := range edges {
		ru, rv := find(e.U), find(e.V)
		if ru != rv {
			parent[ru] = rv
			mst = append(mst, e)
		}
	}
	return mst
}

// TestGHSMatchesKruskal checks the GHS tree is the unique MST of the
// lexicographic weights, on every engine.
func TestGHSMatchesKruskal(t *testing.T) {
	for gname, g := range testGraphs() {
		if g.N() < 2 {
			continue
		}
		c := g.Compile()
		want := kruskalLex(g)
		for ename, eng := range testEngines() {
			if ename == "event-nofifo" {
				continue // GHS assumes FIFO channels
			}
			t.Run(gname+"/"+ename, func(t *testing.T) {
				st, _, err := buildTree(eng, c, NewGHSFactory())
				if err != nil {
					t.Fatal(err)
				}
				got := st.Edges()
				if len(got) != len(want) {
					t.Fatalf("edge count %d, want %d", len(got), len(want))
				}
				sort.Slice(want, func(i, j int) bool {
					if want[i].U != want[j].U {
						return want[i].U < want[j].U
					}
					return want[i].V < want[j].V
				})
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("edge %d: got %v, want %v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestElectionPicksMinID verifies the extinction winner.
func TestElectionPicksMinID(t *testing.T) {
	g := graph.Gnp(25, 0.25, 55)
	c := g.Compile()
	for ename, eng := range testEngines() {
		t.Run(ename, func(t *testing.T) {
			protos, _, err := eng.Run(c, NewElectionFactory())
			if err != nil {
				t.Fatal(err)
			}
			min := g.Nodes()[0]
			for i, p := range protos {
				id := c.Index().ID(int32(i))
				leader := p.(*ElectionNode).Leader()
				if leader != (id == min) {
					t.Errorf("node %d leader=%v, want %v", id, leader, id == min)
				}
			}
		})
	}
}

// TestGHSMessageComplexity sanity-checks the O(n log n + m) bound with a
// generous constant.
func TestGHSMessageComplexity(t *testing.T) {
	g := graph.Gnp(64, 0.15, 77)
	_, rep, err := Build(&sim.EventEngine{Delay: sim.UnitDelay}, g.Compile(), NewGHSFactory())
	if err != nil {
		t.Fatal(err)
	}
	n, m := float64(g.N()), float64(g.M())
	bound := int64(10*n*logn(g.N()) + 6*m)
	if rep.Messages > bound {
		t.Errorf("GHS used %d messages, bound %d (n=%d m=%d)", rep.Messages, bound, g.N(), g.M())
	}
}

func logn(n int) float64 {
	l := 0.0
	for v := 1; v < n; v *= 2 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

// --- sequential builders ---

func TestSequentialBuilders(t *testing.T) {
	for gname, g := range testGraphs() {
		t.Run(gname, func(t *testing.T) {
			root := g.Nodes()[0]
			bfs, err := BFSTree(g, root)
			if err != nil {
				t.Fatal(err)
			}
			if err := bfs.Validate(g); err != nil {
				t.Fatalf("BFS: %v", err)
			}
			dfs, err := DFSTree(g, root)
			if err != nil {
				t.Fatal(err)
			}
			if err := dfs.Validate(g); err != nil {
				t.Fatalf("DFS: %v", err)
			}
			star, err := StarTree(g)
			if err != nil {
				t.Fatal(err)
			}
			if err := star.Validate(g); err != nil {
				t.Fatalf("star: %v", err)
			}
			deg, _ := star.MaxDegree()
			if g.N() > 1 && deg < g.MaxDegree() {
				t.Errorf("star tree degree %d below graph max degree %d", deg, g.MaxDegree())
			}
			rnd, err := RandomST(g, 123)
			if err != nil {
				t.Fatal(err)
			}
			if err := rnd.Validate(g); err != nil {
				t.Fatalf("random: %v", err)
			}
		})
	}
}

// TestRandomSTVariety: Wilson's algorithm should produce different trees for
// different seeds on a graph with many spanning trees.
func TestRandomSTVariety(t *testing.T) {
	g := graph.Complete(8)
	a, err := RandomST(g, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomST(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.SameEdges(b) {
		t.Error("two seeds produced identical random spanning trees (possible but astronomically unlikely)")
	}
}
