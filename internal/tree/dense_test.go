package tree

import (
	"maps"
	"math/rand"
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

// checkDense fails unless d validates against c and every child list is
// strictly ascending.
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
// The facade conversion and Clone must round-trip the result.
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
		back, err := FromTree(d.ToTree(), c.Index())
		if err != nil {
			t.Fatal(err)
		}
		requireSame(t, d, back, "facade round trip")
		if err := d.ToTree().Validate(g); err != nil {
			t.Fatalf("facade tree invalid: %v", err)
		}
		requireSame(t, d, d.Clone(), "clone")
	}
}

// TestDenseWalkSubtree pins preorder child-ascending iteration.
func TestDenseWalkSubtree(t *testing.T) {
	c := graph.Path(6).Compile()
	d := randomSpanningTree(t, c, 1)
	tr := d.ToTree()
	for i := int32(0); int(i) < d.N(); i++ {
		want := tr.SubtreeNodes(c.Index().ID(i)) // ascending
		got := d.WalkSubtree(i, nil)
		if len(got) != len(want) {
			t.Fatalf("subtree of %d: %d nodes vs %d", i, len(got), len(want))
		}
		seen := make(map[graph.NodeID]bool)
		for _, j := range got {
			seen[c.Index().ID(j)] = true
		}
		for _, w := range want {
			if !seen[w] {
				t.Fatalf("subtree of %d misses %d", i, w)
			}
		}
	}
}

// TestFromParentDenseMatchesFromTree checks the direct dense constructor
// against the FromTree conversion on random spanning trees: same parents,
// same sorted children, and both validate against the snapshot.
func TestFromParentDenseMatchesFromTree(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Path(1),
		graph.Path(2),
		graph.Ring(9),
		graph.Grid(7, 5),
		graph.Gnp(40, 0.15, 7),
		graph.BarabasiAlbert(60, 3, 9),
	}
	for gi, g := range graphs {
		c := g.Compile()
		for seed := int64(0); seed < 4; seed++ {
			got := randomSpanningTree(t, c, seed*31+int64(gi))
			checkDense(t, c, got, "FromParentDense")
			want, err := FromTree(got.ToTree(), c.Index())
			if err != nil {
				t.Fatalf("graph %d seed %d: %v", gi, seed, err)
			}
			checkDense(t, c, want, "FromTree")
			requireSame(t, want, got, "FromParentDense")
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
