package tree

import (
	"fmt"
	"sort"

	"mdegst/internal/graph"
)

// Dense is the slice-backed rooted tree over a graph.Index: the parent of
// dense node i is parent[i] (NoParent for the root or a detached subtree
// top) and children[i] holds i's children as a sorted dense slice. It is the
// representation every tree-improving hot path works on; Tree remains the
// map-keyed facade view, with FromTree/ToTree converting between the two.
//
// Because dense indices are assigned in ascending NodeID order, "ascending
// dense index" and "ascending NodeID" are the same order: algorithms ported
// from the map representation keep their deterministic tie-breaking.
type Dense struct {
	idx      *graph.Index
	root     int32
	parent   []int32
	children [][]int32

	// kidArena backs the initial children slices so building a Dense costs
	// O(n) in two allocations; mutation may grow individual lists out of the
	// arena, which is fine.
	kidArena []int32
}

// NoParent marks a dense node with no parent (the root, or the top of a
// subtree detached by CutChild).
const NoParent int32 = -1

// NewDense returns a Dense tree over idx rooted at dense node root with no
// edges yet (every other node detached).
func NewDense(idx *graph.Index, root int32) *Dense {
	n := idx.N()
	d := &Dense{
		idx:      idx,
		root:     root,
		parent:   make([]int32, n),
		children: make([][]int32, n),
	}
	for i := range d.parent {
		d.parent[i] = NoParent
	}
	return d
}

// FromTree converts the map-keyed facade tree to its dense form over idx.
func FromTree(t *Tree, idx *graph.Index) (*Dense, error) {
	root, ok := idx.Of(t.Root)
	if !ok {
		return nil, fmt.Errorf("tree: root %d not in index", t.Root)
	}
	d := NewDense(idx, root)
	n := idx.N()
	if t.N() != n {
		return nil, fmt.Errorf("tree: has %d nodes, index %d", t.N(), n)
	}
	counts := make([]int32, n)
	for v, p := range t.Parent {
		vi, ok1 := idx.Of(v)
		pi, ok2 := idx.Of(p)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("tree: edge (%d,%d) not in index", v, p)
		}
		d.parent[vi] = pi
		counts[pi]++
	}
	d.kidArena = make([]int32, n-1+1)
	at := int32(0)
	for i := int32(0); int(i) < n; i++ {
		d.children[i] = d.kidArena[at:at:(at + counts[i])]
		at += counts[i]
	}
	// Filling in ascending child order keeps every list sorted.
	for i := int32(0); int(i) < n; i++ {
		if p := d.parent[i]; p != NoParent {
			d.children[p] = append(d.children[p], i)
		}
	}
	return d, nil
}

// FromParentDense builds a Dense tree directly from a dense parent table:
// parent[i] is the dense parent of node i, NoParent at the root only. The
// table is copied. This is the map-free analogue of FromParentMap followed
// by FromTree — the extraction path of million-node runs — so validation
// stays O(n) on flat arrays: a visit-stamp walk proves every node reaches
// the root (equivalently, that the parent edges are acyclic).
func FromParentDense(idx *graph.Index, root int32, parent []int32) (*Dense, error) {
	n := idx.N()
	if len(parent) != n {
		return nil, fmt.Errorf("tree: parent table has %d entries, index %d", len(parent), n)
	}
	if root < 0 || int(root) >= n {
		return nil, fmt.Errorf("tree: root %d out of range", root)
	}
	if parent[root] != NoParent {
		return nil, fmt.Errorf("tree: root %d has a parent", idx.ID(root))
	}
	d := &Dense{
		idx:      idx,
		root:     root,
		parent:   append([]int32(nil), parent...),
		children: make([][]int32, n),
	}
	counts := make([]int32, n)
	for i := int32(0); int(i) < n; i++ {
		p := d.parent[i]
		if i == root {
			continue
		}
		switch {
		case p == NoParent:
			return nil, fmt.Errorf("tree: node %d detached", idx.ID(i))
		case p < 0 || int(p) >= n:
			return nil, fmt.Errorf("tree: node %d has out-of-range parent %d", idx.ID(i), p)
		case p == i:
			return nil, fmt.Errorf("tree: node %d is its own parent", idx.ID(i))
		}
		counts[p]++
	}
	// Every non-root node has exactly one parent edge, so a walk up from any
	// node either reaches the root or re-enters itself. Stamping each node
	// with the pass that first visited it settles every node exactly once:
	// hitting a node stamped by an earlier pass inherits that pass's proof.
	state := make([]int32, n)
	for i := int32(0); int(i) < n; i++ {
		if state[i] != 0 || i == root {
			continue
		}
		pass := i + 1
		v := i
		for v != root && state[v] == 0 {
			state[v] = pass
			v = d.parent[v]
		}
		if v != root && state[v] == pass {
			return nil, fmt.Errorf("tree: cycle through node %d", idx.ID(v))
		}
	}
	d.kidArena = make([]int32, n-1+1)
	at := int32(0)
	for i := int32(0); int(i) < n; i++ {
		d.children[i] = d.kidArena[at:at:(at + counts[i])]
		at += counts[i]
	}
	// Filling in ascending child order keeps every list sorted.
	for i := int32(0); int(i) < n; i++ {
		if p := d.parent[i]; p != NoParent {
			d.children[p] = append(d.children[p], i)
		}
	}
	return d, nil
}

// ToTree converts back to the map-keyed facade tree.
func (d *Dense) ToTree() *Tree {
	t := New(d.idx.ID(d.root))
	for i, p := range d.parent {
		v := d.idx.ID(int32(i))
		if p != NoParent {
			t.Parent[v] = d.idx.ID(p)
		}
		ch := make([]graph.NodeID, len(d.children[i]))
		for k, c := range d.children[i] {
			ch[k] = d.idx.ID(c)
		}
		t.Children[v] = ch
	}
	return t
}

// Clone returns a deep copy sharing the index.
func (d *Dense) Clone() *Dense {
	c := &Dense{
		idx:      d.idx,
		root:     d.root,
		parent:   append([]int32(nil), d.parent...),
		children: make([][]int32, len(d.children)),
	}
	c.kidArena = make([]int32, 0, len(d.parent))
	for i, ch := range d.children {
		at := len(c.kidArena)
		c.kidArena = append(c.kidArena, ch...)
		c.children[i] = c.kidArena[at:len(c.kidArena):len(c.kidArena)]
	}
	return c
}

// Index returns the NodeID<->dense bijection the tree is built over.
func (d *Dense) Index() *graph.Index { return d.idx }

// N returns the number of nodes.
func (d *Dense) N() int { return len(d.parent) }

// Root returns the dense root.
func (d *Dense) Root() int32 { return d.root }

// Parent returns the parent of dense node i (NoParent for the root).
func (d *Dense) Parent(i int32) int32 { return d.parent[i] }

// Children returns i's children, ascending. Shared; do not modify.
func (d *Dense) Children(i int32) []int32 { return d.children[i] }

// Degree returns the tree degree of dense node i.
func (d *Dense) Degree(i int32) int {
	deg := len(d.children[i])
	if d.parent[i] != NoParent {
		deg++
	}
	return deg
}

// MaxDegree returns the maximum tree degree and the ascending dense list of
// nodes attaining it. The returned slice is appended to at (may reuse at's
// backing array).
func (d *Dense) MaxDegree(at []int32) (int, []int32) {
	max := 0
	at = at[:0]
	for i := range d.parent {
		switch deg := d.Degree(int32(i)); {
		case deg > max:
			max, at = deg, append(at[:0], int32(i))
		case deg == max:
			at = append(at, int32(i))
		}
	}
	return max, at
}

// HasEdge reports whether (i,j) is a tree edge.
func (d *Dense) HasEdge(i, j int32) bool {
	return d.parent[i] == j || d.parent[j] == i
}

// Reroot re-roots the tree at dense node v by reversing the parent pointers
// on the v-to-root path — the paper's MoveRoot path reversal.
func (d *Dense) Reroot(v int32) {
	if v == d.root {
		return
	}
	child := NoParent
	for cur := v; cur != NoParent; {
		next := d.parent[cur]
		if child == NoParent {
			d.parent[cur] = NoParent
		} else {
			d.removeChild(cur, child)
			d.parent[cur] = child
			d.insertChild(child, cur)
		}
		child = cur
		cur = next
	}
	d.root = v
}

// CutChild removes the edge from parent to child; child's subtree dangles
// until reattached.
func (d *Dense) CutChild(parent, child int32) {
	if d.parent[child] != parent {
		panic(fmt.Sprintf("tree: %d is not the parent of %d", d.idx.ID(parent), d.idx.ID(child)))
	}
	d.removeChild(parent, child)
	d.parent[child] = NoParent
}

// AttachExisting makes the parentless node child a child of parent.
func (d *Dense) AttachExisting(parent, child int32) {
	if d.parent[child] != NoParent {
		panic(fmt.Sprintf("tree: node %d already has a parent", d.idx.ID(child)))
	}
	d.parent[child] = parent
	d.insertChild(parent, child)
}

// RerootSubtree reverses parent pointers from the detached subtree's top
// down to v, making v the new top.
func (d *Dense) RerootSubtree(top, v int32) {
	if top == v {
		return
	}
	child := NoParent
	cur := v
	for {
		next := d.parent[cur]
		if child == NoParent {
			d.parent[cur] = NoParent
		} else {
			d.removeChild(cur, child)
			d.parent[cur] = child
			d.insertChild(child, cur)
		}
		if cur == top {
			break
		}
		if next == NoParent {
			panic(fmt.Sprintf("tree: node %d not below subtree top %d", d.idx.ID(v), d.idx.ID(top)))
		}
		child = cur
		cur = next
	}
}

// WalkSubtree appends the subtree of v (preorder, children ascending) to
// out and returns it.
func (d *Dense) WalkSubtree(v int32, out []int32) []int32 {
	out = append(out, v)
	for head := len(out) - 1; head < len(out); head++ {
		out = append(out, d.children[out[head]]...)
	}
	return out
}

// Validate checks the dense tree against a snapshot of the host graph: every
// edge is a graph edge, children lists are sorted and mutually consistent
// with parents, and the root reaches every node.
func (d *Dense) Validate(c *graph.CSR) error {
	if c.Index() != d.idx {
		// A different Index object is acceptable only if it encodes the
		// same bijection; cheap length check first, then spot equality.
		if c.N() != d.N() {
			return fmt.Errorf("tree: index mismatch with snapshot")
		}
		for i := int32(0); int(i) < d.N(); i++ {
			if c.Index().ID(i) != d.idx.ID(i) {
				return fmt.Errorf("tree: index mismatch with snapshot at dense %d", i)
			}
		}
	}
	if d.parent[d.root] != NoParent {
		return fmt.Errorf("tree: root %d has a parent", d.idx.ID(d.root))
	}
	edges := 0
	for i, p := range d.parent {
		if p == NoParent {
			if int32(i) != d.root {
				return fmt.Errorf("tree: node %d detached", d.idx.ID(int32(i)))
			}
			continue
		}
		edges++
		if !c.HasEdge(int32(i), p) {
			return fmt.Errorf("tree: edge (%d,%d) not in graph", d.idx.ID(int32(i)), d.idx.ID(p))
		}
	}
	if edges != d.N()-1 {
		return fmt.Errorf("tree: %d parent entries for %d nodes", edges, d.N())
	}
	for i, ch := range d.children {
		if !sort.SliceIsSorted(ch, func(a, b int) bool { return ch[a] < ch[b] }) {
			return fmt.Errorf("tree: children of %d not sorted", d.idx.ID(int32(i)))
		}
		for _, c := range ch {
			if d.parent[c] != int32(i) {
				return fmt.Errorf("tree: child %d of %d has parent %d", d.idx.ID(c), d.idx.ID(int32(i)), d.parent[c])
			}
		}
	}
	if got := len(d.WalkSubtree(d.root, nil)); got != d.N() {
		return fmt.Errorf("tree: root reaches %d of %d nodes", got, d.N())
	}
	return nil
}

func (d *Dense) removeChild(p, c int32) {
	ch := d.children[p]
	for i, x := range ch {
		if x == c {
			d.children[p] = append(ch[:i], ch[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("tree: node %d has no child %d", d.idx.ID(p), d.idx.ID(c)))
}

func (d *Dense) insertChild(p, c int32) {
	ch := d.children[p]
	i := 0
	for i < len(ch) && ch[i] < c {
		i++
	}
	ch = append(ch, 0)
	copy(ch[i+1:], ch[i:])
	ch[i] = c
	d.children[p] = ch
}
