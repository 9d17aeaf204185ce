// Package tree provides the rooted spanning tree representations: Dense,
// the slice-backed form over a graph snapshot's dense index that every
// tree-building and tree-improving algorithm works on, re-rooting it (the
// paper's path reversal) and applying the cut/attach primitives of
// improvement swaps; and Tree, the read-only map-keyed view the public facade
// and its result fields carry. Both validate against a host graph and answer
// degree queries.
package tree

import (
	"fmt"
	"sort"
	"strings"

	"mdegst/internal/graph"
)

// Tree is a rooted tree over graph.NodeID nodes. Parent maps every non-root
// node to its parent; the root is absent from Parent. Children holds the
// inverse, with child lists kept sorted for determinism.
type Tree struct {
	Root     graph.NodeID
	Parent   map[graph.NodeID]graph.NodeID
	Children map[graph.NodeID][]graph.NodeID
}

// New returns a tree containing only the root.
func New(root graph.NodeID) *Tree {
	return &Tree{
		Root:     root,
		Parent:   make(map[graph.NodeID]graph.NodeID),
		Children: map[graph.NodeID][]graph.NodeID{root: nil},
	}
}

// N returns the number of nodes in the tree.
func (t *Tree) N() int { return len(t.Children) }

// Nodes returns all tree nodes in ascending order.
func (t *Tree) Nodes() []graph.NodeID {
	ns := make([]graph.NodeID, 0, len(t.Children))
	for v := range t.Children {
		ns = append(ns, v)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	return ns
}

// HasNode reports whether v belongs to the tree.
func (t *Tree) HasNode(v graph.NodeID) bool {
	_, ok := t.Children[v]
	return ok
}

// Degree returns the tree degree of v: number of children plus one for the
// parent edge if v is not the root.
func (t *Tree) Degree(v graph.NodeID) int {
	d := len(t.Children[v])
	if v != t.Root {
		d++
	}
	return d
}

// MaxDegree returns the maximum tree degree and the sorted list of nodes
// attaining it.
func (t *Tree) MaxDegree() (int, []graph.NodeID) {
	max := 0
	var at []graph.NodeID
	for _, v := range t.Nodes() {
		switch d := t.Degree(v); {
		case d > max:
			max, at = d, []graph.NodeID{v}
		case d == max:
			at = append(at, v)
		}
	}
	return max, at
}

// DegreeHistogram returns tree degree -> count.
func (t *Tree) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for v := range t.Children {
		h[t.Degree(v)]++
	}
	return h
}

// Edges returns the tree's edges in normalised ascending order.
func (t *Tree) Edges() []graph.Edge {
	es := make([]graph.Edge, 0, len(t.Parent))
	for v, p := range t.Parent {
		es = append(es, graph.NewEdge(v, p))
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].U != es[j].U {
			return es[i].U < es[j].U
		}
		return es[i].V < es[j].V
	})
	return es
}

// HasEdge reports whether (u,v) is a tree edge.
func (t *Tree) HasEdge(u, v graph.NodeID) bool {
	return t.Parent[u] == v && u != t.Root || t.Parent[v] == u && v != t.Root
}

// PathToRoot returns the node sequence v, parent(v), ..., root.
func (t *Tree) PathToRoot(v graph.NodeID) []graph.NodeID {
	var path []graph.NodeID
	for {
		path = append(path, v)
		if v == t.Root {
			return path
		}
		v = t.Parent[v]
	}
}

// Depth returns the number of edges between v and the root.
func (t *Tree) Depth(v graph.NodeID) int {
	d := 0
	for v != t.Root {
		v = t.Parent[v]
		d++
	}
	return d
}

// Height returns the maximum depth over all nodes.
func (t *Tree) Height() int {
	max := 0
	for v := range t.Children {
		if d := t.Depth(v); d > max {
			max = d
		}
	}
	return max
}

// SubtreeNodes returns all nodes in the subtree rooted at v, ascending.
func (t *Tree) SubtreeNodes(v graph.NodeID) []graph.NodeID {
	out := []graph.NodeID{v}
	for head := 0; head < len(out); head++ {
		out = append(out, t.Children[out[head]]...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate checks that t is a spanning tree of g: same node set, every tree
// edge is a graph edge, parent/children are mutually consistent, and the
// structure is a single rooted tree.
func (t *Tree) Validate(g *graph.Graph) error {
	if t.N() != g.N() {
		return fmt.Errorf("tree: has %d nodes, graph has %d", t.N(), g.N())
	}
	if !t.HasNode(t.Root) {
		return fmt.Errorf("tree: root %d not a tree node", t.Root)
	}
	if _, ok := t.Parent[t.Root]; ok {
		return fmt.Errorf("tree: root %d has a parent", t.Root)
	}
	for v := range t.Children {
		if !g.HasNode(v) {
			return fmt.Errorf("tree: node %d not in graph", v)
		}
	}
	if len(t.Parent) != t.N()-1 {
		return fmt.Errorf("tree: %d parent entries for %d nodes", len(t.Parent), t.N())
	}
	for v, p := range t.Parent {
		if !g.HasEdge(v, p) {
			return fmt.Errorf("tree: edge (%d,%d) not in graph", v, p)
		}
		if !containsChild(t.Children[p], v) {
			return fmt.Errorf("tree: %d missing from children of %d", v, p)
		}
	}
	for p, ch := range t.Children {
		if !sort.SliceIsSorted(ch, func(i, j int) bool { return ch[i] < ch[j] }) {
			return fmt.Errorf("tree: children of %d not sorted", p)
		}
		for i, c := range ch {
			if i > 0 && ch[i-1] == c {
				return fmt.Errorf("tree: duplicate child %d of %d", c, p)
			}
			if t.Parent[c] != p {
				return fmt.Errorf("tree: child %d of %d has parent %d", c, p, t.Parent[c])
			}
		}
	}
	// Reachability: count nodes in the root's subtree.
	if got := len(t.SubtreeNodes(t.Root)); got != t.N() {
		return fmt.Errorf("tree: root reaches %d of %d nodes", got, t.N())
	}
	return nil
}

// Equal reports whether two trees have the same root and structure.
func (t *Tree) Equal(o *Tree) bool {
	if t.Root != o.Root || t.N() != o.N() {
		return false
	}
	for v, p := range t.Parent {
		if o.Parent[v] != p {
			return false
		}
	}
	return true
}

// String renders the tree as an indented outline, useful in failure output.
func (t *Tree) String() string {
	var b strings.Builder
	var rec func(v graph.NodeID, depth int)
	rec = func(v graph.NodeID, depth int) {
		fmt.Fprintf(&b, "%s%d (deg %d)\n", strings.Repeat("  ", depth), v, t.Degree(v))
		for _, c := range t.Children[v] {
			rec(c, depth+1)
		}
	}
	rec(t.Root, 0)
	return b.String()
}

func containsChild(ch []graph.NodeID, v graph.NodeID) bool {
	i := sort.Search(len(ch), func(i int) bool { return ch[i] >= v })
	return i < len(ch) && ch[i] == v
}
