package tree

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"mdegst/internal/graph"
)

// sampleGraph returns the graph used across tests, whose sample spanning
// tree is
//
//	    0
//	   / \
//	  1   2
//	 / \   \
//	3   4   5
//
// plus non-tree graph edges (3,4) and (4,5). Its identities are 0..5, so
// dense index and NodeID coincide.
func sampleGraph() *graph.Graph {
	g := graph.New()
	for _, e := range [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {1, 4}, {2, 5}, {3, 4}, {4, 5}} {
		g.MustAddEdge(e[0], e[1])
	}
	return g
}

// sampleDense returns the sample tree in dense form over its graph's snapshot.
func sampleDense(t *testing.T) (*graph.CSR, *Dense) {
	t.Helper()
	c := sampleGraph().Compile()
	d, err := FromParentDense(c.Index(), 0, []int32{NoParent, 0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	return c, d
}

func TestDegreesAndQueries(t *testing.T) {
	c, d := sampleDense(t)
	if err := d.Validate(c); err != nil {
		t.Fatal(err)
	}
	wantDeg := []int{2, 3, 2, 1, 1, 1}
	for i, deg := range wantDeg {
		if d.Degree(int32(i)) != deg {
			t.Errorf("deg(%d)=%d, want %d", i, d.Degree(int32(i)), deg)
		}
	}
	max, at := d.MaxDegree(nil)
	if max != 3 || !slices.Equal(at, []int32{1}) {
		t.Errorf("max degree %d at %v, want 3 at [1]", max, at)
	}
	if d.Height() != 2 {
		t.Errorf("height=%d, want 2", d.Height())
	}
	if h := d.DegreeHistogram(); !maps.Equal(h, map[int]int{1: 3, 2: 2, 3: 1}) {
		t.Errorf("histogram %v", h)
	}
	d.Reroot(3)
	if d.Height() != 4 {
		t.Errorf("height after rerooting at a leaf %d, want 4", d.Height())
	}
}

// TestString pins the outline's format, which failure output and the
// sequential layer's digests read: identities, degrees, children ascending.
func TestString(t *testing.T) {
	g := graph.New()
	for _, e := range [][2]graph.NodeID{{10, 4}, {10, 7}, {4, 30}, {4, 20}, {7, 5}} {
		g.MustAddEdge(e[0], e[1])
	}
	idx := g.Compile().Index() // 4, 5, 7, 10, 20, 30
	d, err := FromParentDense(idx, 3, []int32{3, 2, 3, NoParent, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := "10 (deg 2)\n  4 (deg 3)\n    20 (deg 1)\n    30 (deg 1)\n  7 (deg 2)\n    5 (deg 1)\n"
	if got := d.String(); got != want {
		t.Errorf("outline\n%s\nwant\n%s", got, want)
	}
}

func TestReroot(t *testing.T) {
	c, d := sampleDense(t)
	edgesBefore := edgeSet(d)
	d.Reroot(4)
	if d.Root() != 4 {
		t.Fatalf("root = %d", d.Root())
	}
	if err := d.Validate(c); err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(edgeSet(d), edgesBefore) {
		t.Fatal("reroot changed the edge set")
	}
	// Degrees are invariant under rerooting.
	if d.Degree(1) != 3 || d.Degree(4) != 1 {
		t.Errorf("degrees changed: deg(1)=%d deg(4)=%d", d.Degree(1), d.Degree(4))
	}
	if d.Parent(0) != 1 || d.Parent(1) != 4 {
		t.Errorf("path reversal wrong: parent[0]=%d parent[1]=%d", d.Parent(0), d.Parent(1))
	}
}

func TestSwapPrimitives(t *testing.T) {
	c, d := sampleDense(t)
	// Exchange: remove (0,2), re-root the detached subtree {2,5} at 5,
	// attach 5 under 4 via graph edge (4,5).
	d.CutChild(0, 2)
	d.RerootSubtree(2, 5)
	d.AttachExisting(4, 5)
	if err := d.Validate(c); err != nil {
		t.Fatal(err)
	}
	if d.Degree(0) != 1 || d.Degree(4) != 2 {
		t.Errorf("post-swap degrees wrong: deg(0)=%d deg(4)=%d", d.Degree(0), d.Degree(4))
	}
	if max, _ := d.MaxDegree(nil); max != 3 {
		t.Errorf("max degree %d", max)
	}
}

func TestSwapErrors(t *testing.T) {
	mustPanic := func(what string, op func(d *Dense)) {
		t.Helper()
		_, d := sampleDense(t)
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", what)
			}
		}()
		op(d)
	}
	mustPanic("cut of non-child", func(d *Dense) { d.CutChild(0, 5) })
	mustPanic("attach of still-attached node", func(d *Dense) { d.AttachExisting(0, 5) })
	mustPanic("reroot of attached subtree", func(d *Dense) { d.RerootSubtree(1, 5) })
}

func TestEqualAndSameEdges(t *testing.T) {
	_, a := sampleDense(t)
	_, b := sampleDense(t)
	if !a.Equal(b) {
		t.Error("identical trees not equal")
	}
	other, err := FromParentDense(sampleGraph().Compile().Index(), 0, []int32{NoParent, 0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(other) {
		t.Error("equal trees over separately compiled indexes not equal")
	}
	b.Reroot(4)
	if a.Equal(b) {
		t.Error("rerooted tree equal to original")
	}
	if !maps.Equal(edgeSet(a), edgeSet(b)) {
		t.Error("rerooted tree must keep the same edges")
	}
	g, _ := graph.RelabelRandom(sampleGraph(), 1)
	relabelled, err := FromParentDense(g.Compile().Index(), 0, []int32{NoParent, 0, 0, 1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(relabelled) {
		t.Error("equal links over other identities compared equal")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	c, d := sampleDense(t)
	// Edge (1,5) is not in the graph.
	bad, err := FromParentDense(c.Index(), 0, []int32{NoParent, 0, 0, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := bad.Validate(c); err == nil {
		t.Error("tree with a non-graph edge passed validation")
	}
	d.parent[5] = 1 // and the children lists now lie
	if err := d.Validate(c); err == nil {
		t.Error("corrupted tree passed validation")
	}
	_, d = sampleDense(t)
	d.CutChild(0, 2)
	if err := d.Validate(c); err == nil {
		t.Error("forest passed validation")
	}
}

// bfsDense returns the breadth-first spanning tree of c rooted at dense 0.
func bfsDense(c *graph.CSR) (*Dense, error) {
	parent, _ := c.BFSParents(0)
	return FromParentDense(c.Index(), 0, parent)
}

// Property: re-rooting at a random sequence of nodes never changes the edge
// set or degrees, and always validates.
func TestQuickRerootInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		c := graph.Gnm(n, n-1+rng.Intn(2*n), seed).Compile()
		d, err := bfsDense(c)
		if err != nil {
			return false
		}
		degrees := make([]int, n)
		for i := range degrees {
			degrees[i] = d.Degree(int32(i))
		}
		for i := 0; i < 8; i++ {
			target := int32(rng.Intn(n))
			d.Reroot(target)
			if d.Root() != target || d.Validate(c) != nil {
				return false
			}
			for v, deg := range degrees {
				if d.Degree(int32(v)) != deg {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: cut + subtree-reroot + attach along a random non-tree edge keeps
// a valid spanning tree (the improvement swap safety argument).
func TestQuickSwapKeepsSpanningTree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		c := graph.Gnm(n, n+rng.Intn(2*n), seed).Compile()
		d, err := bfsDense(c)
		if err != nil {
			return false
		}
		edges := c.DenseEdges(nil)
		for trial := 0; trial < 10; trial++ {
			e := edges[rng.Intn(len(edges))]
			u, v := e[0], e[1]
			if d.HasEdge(u, v) {
				continue
			}
			// Walk up from u to the highest ancestor whose subtree does not
			// hold v, cut it off, re-root it at u and attach u to v.
			inSub := func(top int32) bool { return slices.Contains(d.WalkSubtree(top, nil), v) }
			if inSub(u) {
				continue
			}
			top := u
			for p := d.Parent(top); p != NoParent && !inSub(p); p = d.Parent(top) {
				top = p
			}
			d.CutChild(d.Parent(top), top)
			d.RerootSubtree(top, u)
			d.AttachExisting(v, u)
			if err := d.Validate(c); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
