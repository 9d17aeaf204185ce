// Package tree provides the rooted spanning tree representations: Dense,
// the slice-backed form over a graph snapshot's dense index that every
// tree-building and tree-improving algorithm works on, and Tree, the
// map-keyed view the public facade and its result fields carry. Both offer
// validation against a host graph, degree queries, re-rooting (the paper's
// path reversal) and the cut/attach primitives of improvement swaps; Tree's
// mutators remain the reference Dense is tested against.
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

// FromParentMap builds a tree from a parent map in which the root maps to
// itself (or is absent). It rejects structures that are not a single tree.
func FromParentMap(root graph.NodeID, parent map[graph.NodeID]graph.NodeID) (*Tree, error) {
	t := New(root)
	for v, p := range parent {
		if v == root {
			if p != root {
				return nil, fmt.Errorf("tree: root %d has parent %d", root, p)
			}
			continue
		}
		t.Parent[v] = p
	}
	for v, p := range t.Parent {
		t.Children[p] = append(t.Children[p], v)
		if _, ok := t.Children[v]; !ok {
			t.Children[v] = nil
		}
	}
	for v := range t.Children {
		t.sortChildren(v)
	}
	// Reject cycles/forests: every node must reach the root. Walks stop at
	// the first node already verified, so the total work is O(n) — a
	// per-node walk to the root would be O(n · depth), which dominated
	// 100k-node extractions before the scheduler work made those runs cheap.
	const (
		walking  = 1
		verified = 2
	)
	state := make(map[graph.NodeID]uint8, len(t.Children))
	state[root] = verified
	var path []graph.NodeID
	for v := range t.Children {
		cur := v
		for state[cur] == 0 {
			state[cur] = walking
			path = append(path, cur)
			p, ok := t.Parent[cur]
			if !ok {
				return nil, fmt.Errorf("tree: node %d cannot reach root %d", v, root)
			}
			cur = p
		}
		if state[cur] == walking {
			return nil, fmt.Errorf("tree: cycle through node %d", cur)
		}
		for _, u := range path {
			state[u] = verified
		}
		path = path[:0]
	}
	return t, nil
}

// Clone returns a deep copy of t.
func (t *Tree) Clone() *Tree {
	c := New(t.Root)
	for v, p := range t.Parent {
		c.Parent[v] = p
	}
	for v, ch := range t.Children {
		c.Children[v] = append([]graph.NodeID(nil), ch...)
	}
	return c
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

// Attach adds child under parent. The parent must already be in the tree and
// the child must not.
func (t *Tree) Attach(parent, child graph.NodeID) error {
	if !t.HasNode(parent) {
		return fmt.Errorf("tree: attach below missing node %d", parent)
	}
	if t.HasNode(child) {
		return fmt.Errorf("tree: node %d already in tree", child)
	}
	t.Parent[child] = parent
	t.Children[parent] = insertChild(t.Children[parent], child)
	t.Children[child] = nil
	return nil
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

// PathBetween returns the unique tree path from u to v inclusive.
func (t *Tree) PathBetween(u, v graph.NodeID) []graph.NodeID {
	up := t.PathToRoot(u)
	vp := t.PathToRoot(v)
	depth := make(map[graph.NodeID]int, len(up))
	for i, x := range up {
		depth[x] = i
	}
	// First node of v's root path that also lies on u's root path is the LCA.
	for j, x := range vp {
		if i, ok := depth[x]; ok {
			path := append([]graph.NodeID(nil), up[:i+1]...)
			for k := j - 1; k >= 0; k-- {
				path = append(path, vp[k])
			}
			return path
		}
	}
	return nil
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

// Reroot re-roots the tree at v by reversing the parent pointers on the
// v-to-root path — structurally identical to the paper's MoveRoot path
// reversal. The edge set is unchanged.
func (t *Tree) Reroot(v graph.NodeID) {
	if v == t.Root {
		return
	}
	path := t.PathToRoot(v) // v ... root
	for i := len(path) - 1; i > 0; i-- {
		parent, child := path[i], path[i-1]
		t.Children[parent] = removeChild(t.Children[parent], child)
		t.Parent[parent] = child
		t.Children[child] = insertChild(t.Children[child], parent)
	}
	delete(t.Parent, v)
	t.Root = v
}

// CutChild removes the tree edge from parent to child; the child's subtree
// becomes parentless (dangling) until reattached. Used by improvement swaps.
func (t *Tree) CutChild(parent, child graph.NodeID) error {
	if t.Parent[child] != parent {
		return fmt.Errorf("tree: %d is not the parent of %d", parent, child)
	}
	t.Children[parent] = removeChild(t.Children[parent], child)
	delete(t.Parent, child)
	return nil
}

// AttachExisting makes child (currently parentless, other than the root) a
// child of parent. It is the reattachment half of an improvement swap.
func (t *Tree) AttachExisting(parent, child graph.NodeID) error {
	if !t.HasNode(parent) || !t.HasNode(child) {
		return fmt.Errorf("tree: attach of missing node %d under %d", child, parent)
	}
	if _, hasParent := t.Parent[child]; hasParent {
		return fmt.Errorf("tree: node %d already has a parent", child)
	}
	t.Parent[child] = parent
	t.Children[parent] = insertChild(t.Children[parent], child)
	return nil
}

// RerootSubtree reverses parent pointers along the path from the subtree's
// current top `top` down to v, making v the top of that dangling subtree.
// The subtree must have been detached first (top has no parent).
func (t *Tree) RerootSubtree(top, v graph.NodeID) error {
	if _, hasParent := t.Parent[top]; hasParent && top != t.Root {
		return fmt.Errorf("tree: subtree top %d still attached", top)
	}
	if top == v {
		return nil
	}
	// Walk up from v to top.
	path := []graph.NodeID{v}
	for cur := v; cur != top; {
		p, ok := t.Parent[cur]
		if !ok {
			return fmt.Errorf("tree: node %d not below subtree top %d", v, top)
		}
		path = append(path, p)
		cur = p
	}
	// path = v ... top; reverse pointers.
	for i := len(path) - 1; i > 0; i-- {
		parent, child := path[i], path[i-1]
		t.Children[parent] = removeChild(t.Children[parent], child)
		t.Parent[parent] = child
		t.Children[child] = insertChild(t.Children[child], parent)
	}
	delete(t.Parent, v)
	return nil
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

// SameEdges reports whether two trees have identical edge sets, ignoring
// root placement and orientation.
func (t *Tree) SameEdges(o *Tree) bool {
	a, b := t.Edges(), o.Edges()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ToGraph returns the tree as an undirected graph.
func (t *Tree) ToGraph() *graph.Graph {
	g := graph.New()
	for v := range t.Children {
		g.AddNode(v)
	}
	for v, p := range t.Parent {
		g.MustAddEdge(v, p)
	}
	return g
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

func (t *Tree) sortChildren(v graph.NodeID) {
	ch := t.Children[v]
	sort.Slice(ch, func(i, j int) bool { return ch[i] < ch[j] })
}

func insertChild(ch []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i := sort.Search(len(ch), func(i int) bool { return ch[i] >= v })
	ch = append(ch, 0)
	copy(ch[i+1:], ch[i:])
	ch[i] = v
	return ch
}

func removeChild(ch []graph.NodeID, v graph.NodeID) []graph.NodeID {
	i := sort.Search(len(ch), func(i int) bool { return ch[i] >= v })
	if i < len(ch) && ch[i] == v {
		return append(ch[:i], ch[i+1:]...)
	}
	return ch
}

func containsChild(ch []graph.NodeID, v graph.NodeID) bool {
	i := sort.Search(len(ch), func(i int) bool { return ch[i] >= v })
	return i < len(ch) && ch[i] == v
}
