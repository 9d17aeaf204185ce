package fr

import (
	"math/rand"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// soundGraphs are the differential corpus of internal/mdst's tests
// (testGraphs there).
func soundGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"path6":       graph.Path(6),
		"ring8":       graph.Ring(8),
		"star10":      graph.Star(10),
		"wheel12":     graph.Wheel(12),
		"complete8":   graph.Complete(8),
		"grid4x4":     graph.Grid(4, 4),
		"hyper4":      graph.Hypercube(4),
		"lollipop":    graph.Lollipop(5, 6),
		"caterpillar": graph.Caterpillar(6, 2),
		"bipartite":   graph.CompleteBipartite(3, 7),
		"gnp20":       graph.Gnp(20, 0.3, 9),
		"gnp40sparse": graph.Gnp(40, 0.1, 10),
		"gnm30":       graph.Gnm(30, 60, 11),
		"ba25":        graph.BarabasiAlbert(25, 2, 12),
		"geo20":       graph.RandomGeometric(20, 0.4, 13),
		"hamchords":   graph.HamiltonianPlusChords(24, 30, 14),
		"tree15":      graph.RandomTree(15, 15),
	}
}

// TestMultiExchangeSound audits every Multi round of the twin (DESIGN.md
// deviation 4) over the mdst corpus from BFS, star and random start trees,
// and over 300 seeded graphs of the exhaustion audit's families. After
// each round:
//   - the tree validates;
//   - on the round's starting tree, each applied exchange's cycle (the
//     tree path between its endpoints) holds exactly one degree-k node,
//     its owner;
//   - no node is an endpoint of two exchanges;
//   - the maximum degree does not rise;
//   - the number of degree-k nodes falls by exactly the number of
//     exchanges.
//
// The rule must also fire: some exchange must reach into its owner's
// parent fragment.
func TestMultiExchangeSound(t *testing.T) {
	var starts []*tree.Dense
	var names []string
	var graphs []*graph.CSR
	add := func(name string, c *graph.CSR, t0 *tree.Dense, err error) {
		if err != nil {
			t.Fatal(err)
		}
		names, graphs, starts = append(names, name), append(graphs, c), append(starts, t0)
	}
	for name, g := range soundGraphs() {
		c := g.Compile()
		t0, err := spanning.BFSTree(c, c.Index().ID(0))
		add(name+"/bfs", c, t0, err)
		t0, err = spanning.StarTree(c)
		add(name+"/star", c, t0, err)
		t0, err = spanning.RandomST(c, 4242)
		add(name+"/random", c, t0, err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := range 300 {
		family, g := revalidateCorpus(i, rng)
		c := g.Compile()
		t0, err := spanning.RandomST(c, rng.Int63())
		if i%2 == 0 {
			t0, err = spanning.StarTree(c)
		}
		add(family, c, t0, err)
	}

	rounds, swaps, upward := 0, 0, 0
	for gi, c := range graphs {
		tw := newTwinRun(c, starts[gi].Clone())
		d := tw.d
		for {
			k, maxNodes := d.MaxDegree(tw.maxBuf)
			tw.maxBuf = maxNodes
			if k <= 2 {
				break
			}
			d.Reroot(maxNodes[0])
			before := d.Clone()
			atK := len(maxNodes)
			n := tw.roundMulti(k)
			rounds++
			swaps += n
			if err := d.Validate(c); err != nil {
				t.Fatalf("%s round %d: %v", names[gi], rounds, err)
			}
			ends := map[int32]bool{}
			for _, o := range tw.owners {
				rep := tw.best[o]
				for _, x := range [2]int32{rep.u, rep.v} {
					if ends[x] {
						t.Fatalf("%s: node %d is an endpoint of two exchanges", names[gi], x)
					}
					ends[x] = true
				}
				var atKOnCycle []int32
				for _, x := range treePath(before, rep.u, rep.v) {
					if before.Degree(x) == k {
						atKOnCycle = append(atKOnCycle, x)
					}
				}
				if len(atKOnCycle) != 1 || atKOnCycle[0] != o {
					t.Fatalf("%s: exchange of owner %d closes a cycle through degree-%d nodes %v", names[gi], o, k, atKOnCycle)
				}
				if tw.fragOwner[rep.v] != o {
					upward++
				}
			}
			k2, maxNodes2 := d.MaxDegree(nil)
			if k2 > k {
				t.Fatalf("%s: maximum degree rose from %d to %d", names[gi], k, k2)
			}
			left := 0
			if k2 == k {
				left = len(maxNodes2)
			}
			if left != atK-n {
				t.Fatalf("%s: %d exchanges left %d of %d degree-%d nodes", names[gi], n, left, atK, k)
			}
			if n == 0 {
				break
			}
		}
	}
	t.Logf("%d Multi rounds, %d exchanges, %d through a parent fragment", rounds, swaps, upward)
	if upward == 0 {
		t.Fatal("no exchange used a parent fragment: the audit never exercised the rule")
	}
}

// treePath returns the nodes on the tree path from a to b, both included.
func treePath(d *tree.Dense, a, b int32) []int32 {
	depth := func(x int32) int {
		n := 0
		for ; d.Parent(x) != tree.NoParent; x = d.Parent(x) {
			n++
		}
		return n
	}
	var left, right []int32
	da, db := depth(a), depth(b)
	for ; da > db; da-- {
		left, a = append(left, a), d.Parent(a)
	}
	for ; db > da; db-- {
		right, b = append(right, b), d.Parent(b)
	}
	for a != b {
		left, a = append(left, a), d.Parent(a)
		right, b = append(right, b), d.Parent(b)
	}
	left = append(left, a)
	for i := len(right) - 1; i >= 0; i-- {
		left = append(left, right[i])
	}
	return left
}
