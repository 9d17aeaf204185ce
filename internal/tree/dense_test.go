package tree

import (
	"maps"
	"math/rand"
	"slices"
	"testing"

	"mdegst/internal/graph"
)

// randomSpanningTree returns the breadth-first spanning tree of c from a
// random root.
func randomSpanningTree(t *testing.T, c *graph.CSR, seed int64) *Dense {
	t.Helper()
	root := int32(rand.New(rand.NewSource(seed)).Intn(c.N()))
	parent, _ := c.BFSParents(root)
	d, err := FromParentDense(c.Index(), root, parent)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// edgeSet returns d's tree edges, each keyed low endpoint first.
func edgeSet(d *Dense) map[[2]int32]bool {
	es := make(map[[2]int32]bool, d.N())
	for i := int32(0); int(i) < d.N(); i++ {
		if p := d.Parent(i); p != NoParent {
			es[edgeKey(i, p)] = true
		}
	}
	return es
}

func edgeKey(a, b int32) [2]int32 {
	if a > b {
		a, b = b, a
	}
	return [2]int32{a, b}
}

// checkDense fails unless d validates against c, every child list is
// strictly ascending and the independent oracle accepts d.
func checkDense(t *testing.T, c *graph.CSR, d *Dense, what string) {
	t.Helper()
	if err := d.Validate(c); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := int32(0); int(i) < d.N(); i++ {
		ch := d.Children(i)
		for k := 1; k < len(ch); k++ {
			if ch[k-1] >= ch[k] {
				t.Fatalf("%s: children of %d not ascending: %v", what, i, ch)
			}
		}
	}
	checkSpanning(t, c.Source(), d, what)
}

// requireSame fails unless a and b have the same root, parents and child
// lists.
func requireSame(t *testing.T, a, b *Dense, what string) {
	t.Helper()
	if a.Root() != b.Root() || a.N() != b.N() {
		t.Fatalf("%s: root/size (%d,%d) vs (%d,%d)", what, a.Root(), a.N(), b.Root(), b.N())
	}
	for i := int32(0); int(i) < a.N(); i++ {
		ca, cb := a.Children(i), b.Children(i)
		if a.Parent(i) != b.Parent(i) || len(ca) != len(cb) {
			t.Fatalf("%s: node %d differs", what, i)
		}
		for k := range ca {
			if ca[k] != cb[k] {
				t.Fatalf("%s: children of %d: %v vs %v", what, i, ca, cb)
			}
		}
	}
}

// checkSpanning is the independent oracle: it rebuilds d's edge set by
// identity as a builder graph and fails unless that graph is a tree on
// src's nodes whose every edge is an edge of src. It shares no code with
// Dense or the CSR.
func checkSpanning(t *testing.T, src *graph.Graph, d *Dense, what string) {
	t.Helper()
	h := graph.New()
	for _, v := range src.Nodes() {
		h.AddNode(v)
	}
	for i := int32(0); int(i) < d.N(); i++ {
		p := d.Parent(i)
		if p == NoParent {
			continue
		}
		u, v := d.Index().ID(i), d.Index().ID(p)
		if !src.HasEdge(u, v) {
			t.Fatalf("%s: tree edge (%d,%d) not in the graph", what, u, v)
		}
		if err := h.AddEdge(u, v); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	if h.N() != src.N() || !h.IsTree() {
		t.Fatalf("%s: the edge set is not a spanning tree (%d nodes, %d edges, graph %d nodes)", what, h.N(), h.M(), src.N())
	}
}

// TestDenseMirrorsTree is the property test of the slice-backed tree: on
// random spanning trees of random graphs (half of them over scrambled
// identities), each random operation must meet its specification. A rooted
// tree is fixed by its root and edge set, so checking both after every
// operation pins the tree exactly:
//   - Reroot(v) makes v the root and keeps the edge set;
//   - a swap (CutChild, RerootSubtree, AttachExisting) replaces the cut edge
//     by the attaching one and keeps the root;
//   - every operation leaves a tree that validates with ascending children.
//
// Clone must copy the result.
func TestDenseMirrorsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		g := graph.Gnm(3+rng.Intn(40), 2+rng.Intn(80), rng.Int63())
		if trial%2 == 1 {
			g, _ = graph.RelabelRandom(g, rng.Int63())
		}
		c := g.Compile()
		d := randomSpanningTree(t, c, rng.Int63())
		checkDense(t, c, d, "construction")

		n := int32(d.N())
		for op := 0; op < 20; op++ {
			before := edgeSet(d)
			switch rng.Intn(2) {
			case 0: // Reroot at a random node.
				v := rng.Int31n(n)
				d.Reroot(v)
				checkDense(t, c, d, "reroot")
				if d.Root() != v || !maps.Equal(edgeSet(d), before) {
					t.Fatalf("reroot at %d: root %d or edge set changed", v, d.Root())
				}
			case 1: // A full swap: cut a random child edge of a max-degree
				// node, reroot the dangling subtree at one of its nodes,
				// reattach it under a node of the remaining tree adjacent in
				// the graph (if any).
				_, at := d.MaxDegree(nil)
				owner := at[rng.Intn(len(at))]
				kids := d.Children(owner)
				if len(kids) == 0 {
					continue
				}
				arrival := kids[rng.Intn(len(kids))]
				sub := d.WalkSubtree(arrival, nil)
				u := sub[rng.Intn(len(sub))]
				inSub := make(map[int32]bool, len(sub))
				for _, x := range sub {
					inSub[x] = true
				}
				v := NoParent
				for _, w := range c.Neighbors(u) {
					if !inSub[w] {
						v = w
						break
					}
				}
				if v == NoParent {
					continue
				}
				root := d.Root()
				d.CutChild(owner, arrival)
				d.RerootSubtree(arrival, u)
				d.AttachExisting(v, u)
				checkDense(t, c, d, "swap")
				want := maps.Clone(before)
				delete(want, edgeKey(owner, arrival))
				want[edgeKey(u, v)] = true
				if d.Root() != root || !maps.Equal(edgeSet(d), want) {
					t.Fatalf("swap (%d,%d)->(%d,%d): root %d->%d or wrong edge set", owner, arrival, u, v, root, d.Root())
				}
			}
		}
		requireSame(t, d, d.Clone(), "clone")
	}
}

// TestDenseWalkSubtree checks that the walk from i lists i first, every
// node whose parent chain reaches i exactly once and nothing else, and each
// node after its parent.
func TestDenseWalkSubtree(t *testing.T) {
	c := graph.Gnm(24, 40, 5).Compile()
	d := randomSpanningTree(t, c, 1)
	for i := int32(0); int(i) < d.N(); i++ {
		got := d.WalkSubtree(i, nil)
		if got[0] != i {
			t.Fatalf("subtree of %d starts at %d", i, got[0])
		}
		pos := make(map[int32]int, len(got))
		for k, j := range got {
			if _, dup := pos[j]; dup {
				t.Fatalf("subtree of %d lists %d twice", i, j)
			}
			pos[j] = k
			if j != i && pos[d.Parent(j)] >= k {
				t.Fatalf("subtree of %d lists %d before its parent", i, j)
			}
		}
		for j := int32(0); int(j) < d.N(); j++ {
			below := false
			for v := j; v != NoParent && !below; v = d.Parent(v) {
				below = v == i
			}
			if _, listed := pos[j]; listed != below {
				t.Fatalf("subtree of %d: node %d listed %v, below %v", i, j, listed, below)
			}
		}
	}
}

// TestFromParentDenseMatchesOracle checks the dense constructor on random
// spanning trees: it keeps the parent table, derives each child list as
// the ascending set of nodes naming that parent, validates against the
// snapshot, and the independent oracle accepts it.
func TestFromParentDenseMatchesOracle(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(1),
		graph.Path(2),
		graph.Ring(9),
		graph.Grid(7, 5),
		graph.Gnp(40, 0.15, 7),
		graph.BarabasiAlbert(60, 3, 9),
	}
	for gi, g := range graphs {
		if gi%2 == 1 {
			g, _ = graph.RelabelRandom(g, int64(gi))
		}
		c := g.Compile()
		for seed := int64(0); seed < 4; seed++ {
			root := int32(rand.New(rand.NewSource(seed*31 + int64(gi))).Intn(c.N()))
			parent, _ := c.BFSParents(root)
			got, err := FromParentDense(c.Index(), root, parent)
			if err != nil {
				t.Fatalf("graph %d seed %d: %v", gi, seed, err)
			}
			checkDense(t, c, got, "FromParentDense")
			kids := make([][]int32, c.N())
			for j, p := range parent {
				if p != NoParent {
					kids[p] = append(kids[p], int32(j))
				}
			}
			for i := int32(0); int(i) < c.N(); i++ {
				if got.Parent(i) != parent[i] || !slices.Equal(got.Children(i), kids[i]) {
					t.Fatalf("graph %d seed %d: node %d has parent %d children %v, want %d %v",
						gi, seed, i, got.Parent(i), got.Children(i), parent[i], kids[i])
				}
			}
		}
	}
}

// TestFromParentDenseRejects exercises every validation branch of the dense
// constructor: length and root mismatches, detached nodes, self-loops,
// out-of-range parents and cycles (including cycles off the root component).
func TestFromParentDenseRejects(t *testing.T) {
	idx := graph.Ring(6).Compile().Index()
	cases := map[string]struct {
		root   int32
		parent []int32
	}{
		"short table":     {0, []int32{NoParent, 0}},
		"root range":      {9, []int32{NoParent, 0, 1, 2, 3, 4}},
		"rooted root":     {0, []int32{5, 0, 1, 2, 3, 4}},
		"detached":        {0, []int32{NoParent, 0, 1, NoParent, 3, 4}},
		"self parent":     {0, []int32{NoParent, 0, 2, 2, 3, 4}},
		"out of range":    {0, []int32{NoParent, 0, 1, 99, 3, 4}},
		"two cycle":       {0, []int32{NoParent, 0, 3, 2, 3, 4}},
		"long cycle":      {0, []int32{NoParent, 0, 3, 4, 5, 3}},
		"negative parent": {0, []int32{NoParent, 0, 1, -7, 3, 4}},
	}
	for name, tc := range cases {
		if _, err := FromParentDense(idx, tc.root, tc.parent); err == nil {
			t.Errorf("%s: accepted invalid parent table", name)
		}
	}
	// And the happy path on the same index, for contrast.
	if _, err := FromParentDense(idx, 2, []int32{1, 2, NoParent, 2, 3, 4}); err != nil {
		t.Errorf("valid table rejected: %v", err)
	}
}
