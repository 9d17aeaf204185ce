package exact

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"mdegst/internal/graph"
)

func TestKnownOptima(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"path5", graph.Path(5), 2},
		{"ring8", graph.Ring(8), 2},
		{"complete6", graph.Complete(6), 2}, // Hamiltonian path
		{"star7", graph.Star(7), 6},         // unique spanning tree
		{"wheel8", graph.Wheel(8), 2},       // rim path + one spoke... still Hamiltonian-path-traceable
		{"hyper3", graph.Hypercube(3), 2},   // Hamiltonian
		// K_{2,5}: hubs split the five leaves and bridge through a shared
		// one, e.g. a1-{b1,b2,b3}, a2-{b3,b4,b5} — degree 3.
		{"bipartite2_5", graph.CompleteBipartite(2, 5), 3},
		{"lollipop", graph.Lollipop(4, 3), 2},
		{"caterpillar", graph.Caterpillar(3, 1), 3},
		{"hamchords", graph.HamiltonianPlusChords(14, 10, 1), 2},
		{"pair", graph.Path(2), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.g.Compile()
			got, tr, err := MinDegree(c)
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("Δ* = %d, want %d", got, tc.want)
			}
			if err := tr.Validate(c); err != nil {
				t.Fatal(err)
			}
			if deg, _ := tr.MaxDegree(nil); deg != got {
				t.Errorf("witness tree degree %d != Δ* %d", deg, got)
			}
		})
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.New()
	g.AddNode(3)
	d, tr, err := MinDegree(g.Compile())
	if err != nil {
		t.Fatal(err)
	}
	if d != 0 || tr.N() != 1 {
		t.Errorf("Δ*=%d n=%d", d, tr.N())
	}
}

func TestHasSpanningTreeWithin(t *testing.T) {
	c := graph.Star(6).Compile()
	ok, err := HasSpanningTreeWithin(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("star should need degree 5")
	}
	ok, err = HasSpanningTreeWithin(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("star has its own spanning tree of degree 5")
	}
}

func TestErrors(t *testing.T) {
	g := graph.New()
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	if _, _, err := MinDegree(g.Compile()); err == nil {
		t.Error("disconnected graph accepted")
	}
	if _, _, err := MinDegree(graph.Gnp(MaxExactNodes+5, 0.5, 1).Compile()); err == nil {
		t.Error("oversized graph accepted")
	}
}

func TestDegreeLowerBound(t *testing.T) {
	one := graph.New()
	one.AddNode(7)
	cases := []struct {
		name string
		g    *graph.Graph
		want int
	}{
		{"empty", graph.New(), 0},
		{"one node", one, 0},
		{"one edge", graph.Path(2), 1},
		{"star", graph.Star(9), 8},
		{"path", graph.Path(6), 2},
		{"complete", graph.Complete(5), 2},
		{"spider", spider(3, 4), 3},
	}
	for _, tc := range cases {
		if got := DegreeLowerBound(tc.g.Compile()); got != tc.want {
			t.Errorf("%s: LB=%d, want %d", tc.name, got, tc.want)
		}
	}
}

// sweepLowerBound is the O(n·m) definition of the bound, kept as the
// differential oracle: one DFS sweep over G-v per vertex v.
func sweepLowerBound(c *graph.CSR) int {
	n := c.N()
	if n <= 1 {
		return 0
	}
	lb := 1
	if n >= 3 {
		lb = 2
	}
	visited := make([]bool, n)
	stack := make([]int32, 0, n)
	for v := int32(0); int(v) < n; v++ {
		clear(visited)
		visited[v] = true
		comps := 0
		for s := int32(0); int(s) < n; s++ {
			if visited[s] {
				continue
			}
			comps++
			visited[s] = true
			stack = append(stack[:0], s)
			for len(stack) > 0 {
				u := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range c.Neighbors(u) {
					if !visited[w] {
						visited[w] = true
						stack = append(stack, w)
					}
				}
			}
		}
		if comps > lb {
			lb = comps
		}
	}
	return lb
}

// randomLowerBoundGraph draws one differential case: a random multigraph-
// free edge set over n nodes, with isolated vertices and several
// components as likely as connected ones, or one of the structured
// families whose cut vertices the bound is about.
func randomLowerBoundGraph(rng *rand.Rand) *graph.Graph {
	switch rng.Intn(10) {
	case 0:
		return graph.Path(2 + rng.Intn(30))
	case 1:
		return graph.Star(2 + rng.Intn(30))
	case 2:
		return graph.Ring(3 + rng.Intn(30))
	case 3:
		return graph.Wheel(4 + rng.Intn(30))
	case 4:
		return graph.BarabasiAlbert(4+rng.Intn(60), 1+rng.Intn(2), rng.Int63())
	case 5:
		// Disjoint union of small trees and cliques: several components
		// and cut vertices in each.
		g := graph.New()
		base := graph.NodeID(0)
		for parts := 1 + rng.Intn(4); parts > 0; parts-- {
			var h *graph.Graph
			if rng.Intn(2) == 0 {
				h = graph.RandomTree(1+rng.Intn(12), rng.Int63())
			} else {
				h = graph.Complete(1 + rng.Intn(5))
			}
			for _, v := range h.Nodes() {
				g.AddNode(base + v)
			}
			for _, e := range h.Edges() {
				g.MustAddEdge(base+e.U, base+e.V)
			}
			base += graph.NodeID(h.N())
		}
		return g
	}
	// Uniform random graphs over 0..40 nodes, sparse enough to leave
	// isolated vertices and several components regularly.
	n := rng.Intn(41)
	g := graph.New()
	for v := 0; v < n; v++ {
		g.AddNode(graph.NodeID(v))
	}
	if n >= 2 {
		for m := rng.Intn(2 * n); m > 0; m-- {
			u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
			if u != v && !g.HasEdge(u, v) {
				g.MustAddEdge(u, v)
			}
		}
	}
	return g
}

// TestLowerBoundMatchesSweep holds the linear-time bound to the O(n·m)
// per-vertex sweep on seeded random graphs of every shape the bound must
// handle, plus the degenerate sizes n = 0, 1, 2.
func TestLowerBoundMatchesSweep(t *testing.T) {
	empty := graph.New()
	one := graph.New()
	one.AddNode(4)
	two := graph.New()
	two.AddNode(1)
	two.AddNode(2)
	for _, g := range []*graph.Graph{empty, one, two, graph.Path(2), graph.Path(3), graph.Complete(3)} {
		c := g.Compile()
		if got, want := DegreeLowerBound(c), sweepLowerBound(c); got != want {
			t.Errorf("n=%d m=%d: bound %d, sweep %d", g.N(), g.M(), got, want)
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 2500; i++ {
		g := randomLowerBoundGraph(rng)
		c := g.Compile()
		if got, want := DegreeLowerBound(c), sweepLowerBound(c); got != want {
			t.Fatalf("case %d (n=%d m=%d): bound %d, sweep %d\n%v", i, g.N(), g.M(), got, want, g)
		}
	}
}

// TestLowerBoundScale runs the bound on a 1000×1000 grid — a million
// nodes, where the per-vertex sweep would take hours — and requires the
// answer 2 (a grid has no cut vertex) in linear time: the million-node
// grid may take at most 40 times as long as a 250×250 grid timed in the
// same process, whose node count is 16 times smaller. Each size takes its
// fastest of three runs, so the ratio holds on any host and under the race
// detector, which slows both alike.
func TestLowerBoundScale(t *testing.T) {
	if testing.Short() {
		t.Skip("million-node grid")
	}
	fastest := func(c *graph.CSR) (lb int, best time.Duration) {
		for range 3 {
			start := time.Now()
			lb = DegreeLowerBound(c)
			if took := time.Since(start); best == 0 || took < best {
				best = took
			}
		}
		return lb, best
	}
	small, large := graph.Grid(250, 250).Compile(), graph.Grid(1000, 1000).Compile()
	_, base := fastest(small)
	lb, took := fastest(large)
	t.Logf("1000x1000 grid: bound %d in %v; 250x250 grid in %v (%.1fx)", lb, took, base, float64(took)/float64(base))
	if lb != 2 {
		t.Errorf("grid lower bound %d, want 2", lb)
	}
	if took > 40*base {
		t.Errorf("bound took %v on a 1000x1000 grid, more than 40x the %v of a 250x250 grid", took, base)
	}
}

// spider returns legs paths of the given length glued at a centre.
func spider(legs, length int) *graph.Graph {
	g := graph.New()
	id := graph.NodeID(1)
	for l := 0; l < legs; l++ {
		prev := graph.NodeID(0)
		for s := 0; s < length; s++ {
			g.MustAddEdge(prev, id)
			prev = id
			id++
		}
	}
	return g
}

// Property: the lower bound never exceeds the exact optimum, and the exact
// optimum is achieved by the witness tree.
func TestQuickBoundsConsistent(t *testing.T) {
	f := func(nRaw, mRaw uint8, seed int64) bool {
		n := 4 + int(nRaw%8) // 4..11
		m := n - 1 + int(mRaw)%n
		c := graph.Gnm(n, m, seed).Compile()
		lb := DegreeLowerBound(c)
		opt, tr, err := MinDegree(c)
		if err != nil {
			return false
		}
		if lb > opt {
			return false
		}
		deg, _ := tr.MaxDegree(nil)
		return deg == opt && tr.Validate(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: no spanning tree exists below Δ*, by definition of minimum.
func TestQuickMinimality(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := 4 + int(nRaw%7)
		c := graph.Gnm(n, n+int(seed%int64(n)+int64(n))%n, seed).Compile()
		opt, _, err := MinDegree(c)
		if err != nil {
			return false
		}
		if opt <= 1 {
			return true
		}
		ok, err := HasSpanningTreeWithin(c, opt-1)
		return err == nil && !ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
