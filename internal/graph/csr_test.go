package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestIndexRoundTrip(t *testing.T) {
	g, _ := RelabelRandom(Gnm(40, 120, 3), 9) // non-contiguous, scrambled IDs
	ix := NewIndex(g)
	if ix.N() != g.N() {
		t.Fatalf("index has %d nodes, graph %d", ix.N(), g.N())
	}
	prev := NodeID(-1 << 62)
	for i, v := range g.Nodes() {
		if ix.ID(int32(i)) != v {
			t.Fatalf("dense %d maps to %d, want %d", i, ix.ID(int32(i)), v)
		}
		if got := ix.MustOf(v); got != int32(i) {
			t.Fatalf("node %d maps to dense %d, want %d", v, got, i)
		}
		if v <= prev {
			t.Fatalf("index order not ascending at %d", v)
		}
		prev = v
	}
	if _, ok := ix.Of(-12345); ok {
		t.Fatal("found a node that is not in the graph")
	}
}

// TestCompileAgreesWithGraph is the property test of the snapshot: on random
// graphs every structural query of the CSR must agree with the mutable
// builder it was compiled from.
func TestCompileAgreesWithGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(40)
		m := n - 1 + rng.Intn(2*n)
		g := Gnm(n, m, rng.Int63())
		if trial%3 == 0 {
			g, _ = RelabelRandom(g, rng.Int63())
		}
		c := g.Compile()
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		if c.N() != g.N() || c.M() != g.M() || c.HalfEdges() != 2*g.M() {
			t.Fatalf("size mismatch: csr n=%d m=%d vs graph n=%d m=%d", c.N(), c.M(), g.N(), g.M())
		}
		if c.MaxDegree() != g.MaxDegree() {
			t.Fatalf("max degree %d vs %d", c.MaxDegree(), g.MaxDegree())
		}
		ix := c.Index()
		for i := int32(0); int(i) < c.N(); i++ {
			v := ix.ID(i)
			if c.Degree(i) != g.Degree(v) {
				t.Fatalf("degree of %d: csr %d graph %d", v, c.Degree(i), g.Degree(v))
			}
			if !reflect.DeepEqual(c.NeighborIDs(i), g.Neighbors(v)) && !(len(c.NeighborIDs(i)) == 0 && len(g.Neighbors(v)) == 0) {
				t.Fatalf("neighbours of %d: csr %v graph %v", v, c.NeighborIDs(i), g.Neighbors(v))
			}
			for ni, j := range c.Neighbors(i) {
				if ix.ID(j) != g.Neighbors(v)[ni] {
					t.Fatalf("dense neighbour %d of %d resolves to %d, want %d", ni, v, ix.ID(j), g.Neighbors(v)[ni])
				}
			}
		}
		if !reflect.DeepEqual(c.Edges(), g.Edges()) {
			t.Fatalf("edge lists differ")
		}
		dense := c.DenseEdges(nil)
		if len(dense) != g.M() {
			t.Fatalf("DenseEdges returned %d edges, want %d", len(dense), g.M())
		}
		for k, e := range c.Edges() {
			if ix.ID(dense[k][0]) != e.U || ix.ID(dense[k][1]) != e.V {
				t.Fatalf("dense edge %d = %v, want %v", k, dense[k], e)
			}
		}
		// Adjacency oracle on all pairs.
		nodes := g.Nodes()
		for _, u := range nodes {
			for _, v := range nodes {
				if got, want := c.HasEdge(ix.MustOf(u), ix.MustOf(v)), g.HasEdge(u, v); got != want {
					t.Fatalf("HasEdge(%d,%d): csr %v graph %v", u, v, got, want)
				}
			}
		}
	}
}

// TestCompileIsSnapshot pins immutability: mutating the builder after
// Compile must not change the snapshot.
func TestCompileIsSnapshot(t *testing.T) {
	g := Gnm(16, 30, 1)
	c := g.Compile()
	edges := append([]Edge(nil), c.Edges()...)
	g.MustAddEdge(0, NodeID(g.N())) // grow the builder
	for _, e := range g.Edges() {
		g.RemoveEdge(e.U, e.V)
		break
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c.Edges(), edges) {
		t.Fatal("snapshot changed when the source graph was mutated")
	}
	if c.Source() != g {
		t.Fatal("snapshot lost its source pointer")
	}
}

func BenchmarkCompile(b *testing.B) {
	g := Gnm(1024, 4096, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.Compile()
	}
}
