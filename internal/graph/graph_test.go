package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddEdgeBasics(t *testing.T) {
	g := New()
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(1, 2); err == nil {
		t.Error("duplicate edge accepted")
	}
	if err := g.AddEdge(2, 1); err == nil {
		t.Error("reversed duplicate edge accepted")
	}
	if err := g.AddEdge(3, 3); err == nil {
		t.Error("self-loop accepted")
	}
	if g.N() != 2 || g.M() != 1 {
		t.Errorf("n=%d m=%d, want 2,1", g.N(), g.M())
	}
	if !g.HasEdge(2, 1) {
		t.Error("HasEdge not symmetric")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Ring(5)
	if !g.RemoveEdge(0, 1) {
		t.Fatal("failed to remove existing edge")
	}
	if g.RemoveEdge(0, 1) {
		t.Fatal("removed missing edge")
	}
	if g.M() != 4 {
		t.Errorf("m=%d, want 4", g.M())
	}
	if g.IsConnected() != true {
		t.Error("ring minus one edge should stay connected")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEdgeOther(t *testing.T) {
	e := NewEdge(5, 3)
	if e.U != 3 || e.V != 5 {
		t.Errorf("edge not normalised: %v", e)
	}
	if e.Other(3) != 5 || e.Other(5) != 3 {
		t.Error("Other wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Other of non-endpoint should panic")
		}
	}()
	e.Other(7)
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		n, m int
	}{
		{"ring", Ring(7), 7, 7},
		{"path", Path(7), 7, 6},
		{"complete", Complete(6), 6, 15},
		{"star", Star(9), 9, 8},
		{"wheel", Wheel(9), 9, 16},
		{"grid", Grid(3, 4), 12, 17},
		{"torus", Torus(3, 4), 12, 24},
		{"hypercube", Hypercube(4), 16, 32},
		{"bipartite", CompleteBipartite(3, 4), 7, 12},
		{"lollipop", Lollipop(4, 3), 7, 9},
		{"caterpillar", Caterpillar(4, 2), 12, 11},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.g.N() != tc.n || tc.g.M() != tc.m {
				t.Errorf("n=%d m=%d, want %d %d", tc.g.N(), tc.g.M(), tc.n, tc.m)
			}
			if !tc.g.IsConnected() {
				t.Error("not connected")
			}
			if err := tc.g.Validate(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestHypercubeRejectsDimension checks the dimension guard, which stops
// every case below before anything is allocated.
func TestHypercubeRejectsDimension(t *testing.T) {
	for _, d := range []int{-1, 0, 31, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Hypercube(%d) accepted", d)
				}
			}()
			Hypercube(d)
		}()
	}
}

func TestRandomGeneratorsConnectedAndValid(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		gs := map[string]*Graph{
			"gnp-sparse": Gnp(40, 0.05, seed),
			"gnp-dense":  Gnp(30, 0.5, seed),
			"gnm":        Gnm(35, 80, seed),
			"tree":       RandomTree(25, seed),
			"geo":        RandomGeometric(30, 0.3, seed),
			"ba":         BarabasiAlbert(40, 3, seed),
			"hamchords":  HamiltonianPlusChords(30, 20, seed),
			"treechords": TreePlusChords(30, 12, seed),
		}
		for name, g := range gs {
			if !g.IsConnected() {
				t.Errorf("%s seed %d: not connected", name, seed)
			}
			if err := g.Validate(); err != nil {
				t.Errorf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := Gnp(30, 0.2, 77)
	b := Gnp(30, 0.2, 77)
	ae, be := a.Edges(), b.Edges()
	if len(ae) != len(be) {
		t.Fatal("different edge counts for same seed")
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("different edges for same seed")
		}
	}
	c := BarabasiAlbert(30, 2, 5)
	d := BarabasiAlbert(30, 2, 5)
	ce, de := c.Edges(), d.Edges()
	for i := range ce {
		if ce[i] != de[i] {
			t.Fatal("BarabasiAlbert not deterministic")
		}
	}
}

func TestGnmEdgeCount(t *testing.T) {
	g := Gnm(20, 50, 3)
	if g.M() != 50 {
		t.Errorf("m=%d, want 50", g.M())
	}
	// Request above the maximum gets clamped to the complete graph.
	g = Gnm(6, 100, 3)
	if g.M() != 15 {
		t.Errorf("m=%d, want 15 (clamped)", g.M())
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := RandomTree(12, seed)
		if !g.IsTree() {
			t.Errorf("seed %d: not a tree (n=%d m=%d)", seed, g.N(), g.M())
		}
	}
	if !Path(1).IsTree() {
		t.Error("single node should be a tree")
	}
}

func TestComponents(t *testing.T) {
	g := New()
	g.MustAddEdge(0, 1)
	g.MustAddEdge(2, 3)
	g.AddNode(9)
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if comps[0][0] != 0 || comps[1][0] != 2 || comps[2][0] != 9 {
		t.Errorf("component order wrong: %v", comps)
	}
	if g.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := Path(5)
	if got := g.Eccentricity(0); got != 4 {
		t.Errorf("ecc(0)=%d, want 4", got)
	}
	if got := g.Eccentricity(2); got != 2 {
		t.Errorf("ecc(2)=%d, want 2", got)
	}
	if got := g.Diameter(); got != 4 {
		t.Errorf("diameter=%d, want 4", got)
	}
	if got := Ring(8).Diameter(); got != 4 {
		t.Errorf("ring diameter=%d, want 4", got)
	}
}

func TestBFSParents(t *testing.T) {
	c := Grid(3, 3).Compile()
	parent, reached := c.BFSParents(0)
	if reached != 9 || parent[0] != -1 {
		t.Fatalf("reached %d, root parent %d", reached, parent[0])
	}
	for v := int32(1); int(v) < c.N(); v++ {
		if !c.HasEdge(v, parent[v]) {
			t.Errorf("node %d: parent %d is not a neighbour", v, parent[v])
		}
	}
	depth := func(v int32) int {
		d := 0
		for v != 0 {
			v = parent[v]
			d++
		}
		return d
	}
	if depth(8) != 4 {
		t.Errorf("corner depth = %d, want 4", depth(8))
	}
	for _, v := range []int32{1, 3} {
		if parent[v] != 0 {
			t.Errorf("node %d: parent %d, want the root", v, parent[v])
		}
	}
	// The count of reached nodes shows a disconnected snapshot.
	g := Grid(3, 3)
	g.AddNode(99)
	if _, reached := g.Compile().BFSParents(0); reached != 9 {
		t.Errorf("reached %d with an isolated node, want 9", reached)
	}
}

func TestDegreeQueries(t *testing.T) {
	g := Star(8)
	if g.MaxDegree() != 7 || g.MinDegree() != 1 {
		t.Errorf("max=%d min=%d", g.MaxDegree(), g.MinDegree())
	}
	h := g.DegreeHistogram()
	if h[1] != 7 || h[7] != 1 {
		t.Errorf("histogram %v", h)
	}
}

func TestRelabelRandomPreservesStructure(t *testing.T) {
	g := Gnp(20, 0.3, 8)
	r, mapping := RelabelRandom(g, 9)
	if r.N() != g.N() || r.M() != g.M() {
		t.Fatal("size changed")
	}
	for _, e := range g.Edges() {
		if !r.HasEdge(mapping[e.U], mapping[e.V]) {
			t.Fatalf("edge %v lost in relabelling", e)
		}
	}
	if err := r.Validate(); err != nil {
		t.Error(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := Gnp(25, 0.2, 10)
	g.AddNode(999) // isolated node must survive
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip changed size: %v -> %v", g, back)
	}
	ae, be := g.Edges(), back.Edges()
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatal("round trip changed edges")
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"bad header": "x y\n",
		"bad count":  "2 5\n0 1\n",
		"self loop":  "2 1\n0 0\n",
		"dup":        "2 2\n0 1\n1 0\n",
		"bad id":     "2 1\nzero one\n",
	}
	for name, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	g := Ring(6)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("clone shares storage with original")
	}
}

// Property: Gnp over random parameters is connected, valid and within the
// full edge range.
func TestQuickGnpInvariants(t *testing.T) {
	f := func(nRaw uint8, pRaw uint8, seed int64) bool {
		n := 2 + int(nRaw%40)
		p := float64(pRaw) / 255
		g := Gnp(n, p, seed)
		if g.N() != n || !g.IsConnected() || g.Validate() != nil {
			return false
		}
		return g.M() >= n-1 && g.M() <= n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: a random tree has exactly n-1 edges and is connected.
func TestQuickRandomTree(t *testing.T) {
	f := func(nRaw uint8, seed int64) bool {
		n := 1 + int(nRaw%50)
		g := RandomTree(n, seed)
		return g.IsTree() && g.N() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: insertSorted/removeSorted keep neighbour lists consistent under
// random operation sequences.
func TestQuickEdgeChurn(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := New()
		type pair struct{ u, v NodeID }
		present := make(map[pair]bool)
		for i := 0; i < 200; i++ {
			u := NodeID(rng.Intn(12))
			v := NodeID(rng.Intn(12))
			if u == v {
				continue
			}
			key := pair{min64(u, v), max64(u, v)}
			if rng.Intn(2) == 0 {
				err := g.AddEdge(u, v)
				if present[key] != (err != nil) {
					return false
				}
				present[key] = true
			} else {
				removed := g.RemoveEdge(u, v)
				if removed != present[key] {
					return false
				}
				delete(present, key)
			}
		}
		return g.Validate() == nil && g.M() == len(present)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func min64(a, b NodeID) NodeID {
	if a < b {
		return a
	}
	return b
}

func max64(a, b NodeID) NodeID {
	if a > b {
		return a
	}
	return b
}
