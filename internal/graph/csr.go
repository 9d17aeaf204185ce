package graph

import (
	"fmt"
	"sort"
)

// The dense-index core. Graph remains the mutable builder API keyed by
// NodeID; Compile freezes it into an immutable CSR snapshot whose node and
// adjacency state live in contiguous slices addressed by a dense int32
// index. Everything downstream of construction — simulation engines,
// spanning-tree builders, the improvement twin, the exact solver and the
// experiment harness — consumes the snapshot, so hot loops index arrays
// instead of hashing NodeIDs. See DESIGN.md §5.

// Index is a bijection between the (arbitrary, distinct) NodeIDs of a graph
// and the contiguous range 0..n-1. Dense indices are assigned in ascending
// NodeID order, so iterating 0..n-1 visits nodes in exactly the order
// Graph.Nodes() does — algorithms keep their deterministic tie-breaking when
// they switch from NodeID maps to dense slices.
type Index struct {
	ids []NodeID         // dense -> NodeID, ascending
	pos map[NodeID]int32 // NodeID -> dense
}

// NewIndex builds an index over the nodes of g.
func NewIndex(g *Graph) *Index {
	nodes := g.Nodes()
	ix := &Index{
		ids: append([]NodeID(nil), nodes...),
		pos: make(map[NodeID]int32, len(nodes)),
	}
	for i, v := range ix.ids {
		ix.pos[v] = int32(i)
	}
	return ix
}

// N returns the number of indexed nodes.
func (ix *Index) N() int { return len(ix.ids) }

// ID returns the NodeID at dense index i.
func (ix *Index) ID(i int32) NodeID { return ix.ids[i] }

// IDs returns the dense->NodeID table (ascending). Shared; do not modify.
func (ix *Index) IDs() []NodeID { return ix.ids }

// Of returns the dense index of id and whether id is indexed.
func (ix *Index) Of(id NodeID) (int32, bool) {
	i, ok := ix.pos[id]
	return i, ok
}

// MustOf returns the dense index of id, panicking if id is not indexed.
func (ix *Index) MustOf(id NodeID) int32 {
	i, ok := ix.pos[id]
	if !ok {
		panic(fmt.Sprintf("graph: node %d not in index", id))
	}
	return i
}

// CSR is an immutable compressed-sparse-row snapshot of a graph: for dense
// node i the half-edges are positions Off[i]..Off[i+1] in the neighbour
// arrays, with neighbours in ascending order. A CSR is safe for concurrent
// readers and can be shared across simulation runs, trials and goroutines;
// mutate the builder Graph and Compile again to get a new snapshot.
type CSR struct {
	idx *Index
	off []int32  // len n+1; off[i]..off[i+1] bounds node i's neighbours
	adj []int32  // dense neighbour indices, ascending per node
	ids []NodeID // NodeID of each adj entry (aligned with adj)
	m   int

	src *Graph // the builder this snapshot was compiled from
}

// Compile freezes g into a CSR snapshot. The snapshot copies the adjacency
// into fresh contiguous arrays, so later mutation of g never changes the
// snapshot's own queries — but see Source for the contract the execution
// paths put on the builder.
func (g *Graph) Compile() *CSR {
	ix := NewIndex(g)
	n := ix.N()
	c := &CSR{
		idx: ix,
		off: make([]int32, n+1),
		adj: make([]int32, 2*g.M()),
		ids: make([]NodeID, 2*g.M()),
		m:   g.M(),
		src: g,
	}
	at := int32(0)
	for i := 0; i < n; i++ {
		c.off[i] = at
		for _, w := range g.Neighbors(ix.ids[i]) {
			c.adj[at] = ix.pos[w]
			c.ids[at] = w
			at++
		}
	}
	c.off[n] = at
	return c
}

// N returns the number of nodes.
func (c *CSR) N() int { return c.idx.N() }

// M returns the number of edges.
func (c *CSR) M() int { return c.m }

// Index returns the NodeID<->dense bijection of the snapshot.
func (c *CSR) Index() *Index { return c.idx }

// Source returns the builder Graph this snapshot was compiled from.
//
// The snapshot's own arrays never change, but snapshot-based execution
// paths still read the source: the facade validates caller-supplied trees
// against it. Treat the builder as frozen while a snapshot of it is in use
// — after a structural mutation, Compile again instead of reusing the
// stale snapshot.
func (c *CSR) Source() *Graph { return c.src }

// Degree returns the degree of dense node i.
func (c *CSR) Degree(i int32) int { return int(c.off[i+1] - c.off[i]) }

// Neighbors returns the dense neighbour indices of node i, ascending.
// Shared; do not modify.
func (c *CSR) Neighbors(i int32) []int32 { return c.adj[c.off[i]:c.off[i+1]] }

// NeighborIDs returns the NodeIDs of node i's neighbours, ascending.
// Shared; do not modify.
func (c *CSR) NeighborIDs(i int32) []NodeID { return c.ids[c.off[i]:c.off[i+1]] }

// HalfEdge returns the global position of the directed link (i -> its ni-th
// neighbour) in the adjacency arrays. Engines use it to key per-link state
// (FIFO clamps, jitter forwarders) by a slice index instead of a node-pair
// map.
func (c *CSR) HalfEdge(i int32, ni int) int32 { return c.off[i] + int32(ni) }

// HalfEdges returns the total number of directed links (2M).
func (c *CSR) HalfEdges() int { return len(c.adj) }

// HasEdge reports whether the dense nodes i and j are adjacent.
func (c *CSR) HasEdge(i, j int32) bool {
	ns := c.Neighbors(i)
	p := sort.Search(len(ns), func(k int) bool { return ns[k] >= j })
	return p < len(ns) && ns[p] == j
}

// BFSParents returns the breadth-first parent table from dense node root,
// scanning neighbours in ascending order (-1 at the root and at unreached
// nodes), and the number of nodes reached.
func (c *CSR) BFSParents(root int32) ([]int32, int) {
	parent := make([]int32, c.N())
	for i := range parent {
		parent[i] = -1
	}
	queue := append(make([]int32, 0, c.N()), root)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, w := range c.Neighbors(u) {
			if parent[w] == -1 && w != root {
				parent[w] = u
				queue = append(queue, w)
			}
		}
	}
	return parent, len(queue)
}

// MaxDegree returns the maximum degree of the snapshot (0 when empty).
func (c *CSR) MaxDegree() int {
	max := 0
	for i := 0; i < c.idx.N(); i++ {
		if d := c.Degree(int32(i)); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all edges in normalised ascending order (same order as
// Graph.Edges on the source).
func (c *CSR) Edges() []Edge {
	es := make([]Edge, 0, c.m)
	for i := 0; i < c.idx.N(); i++ {
		u := c.idx.ids[i]
		for _, w := range c.NeighborIDs(int32(i)) {
			if u < w {
				es = append(es, Edge{U: u, V: w})
			}
		}
	}
	return es
}

// DenseEdges appends to dst all edges as (u,v) dense pairs with u < v, in
// ascending order, and returns the slice. Algorithms that scan the edge list
// per round reuse one buffer across rounds.
func (c *CSR) DenseEdges(dst [][2]int32) [][2]int32 {
	if dst == nil {
		dst = make([][2]int32, 0, c.m)
	}
	for i := 0; i < c.idx.N(); i++ {
		for _, j := range c.Neighbors(int32(i)) {
			if int32(i) < j {
				dst = append(dst, [2]int32{int32(i), j})
			}
		}
	}
	return dst
}

// Validate checks the snapshot invariants against its own arrays: sorted
// adjacency, symmetry, consistent half-edge count. O(n+m log d).
func (c *CSR) Validate() error {
	n := c.idx.N()
	if len(c.off) != n+1 || c.off[0] != 0 || int(c.off[n]) != len(c.adj) || len(c.adj) != len(c.ids) {
		return fmt.Errorf("graph: CSR offset table inconsistent")
	}
	if len(c.adj) != 2*c.m {
		return fmt.Errorf("graph: CSR has %d half-edges for m=%d", len(c.adj), c.m)
	}
	for i := int32(0); int(i) < n; i++ {
		ns := c.Neighbors(i)
		for k, j := range ns {
			if k > 0 && ns[k-1] >= j {
				return fmt.Errorf("graph: CSR neighbours of %d not strictly ascending", c.idx.ID(i))
			}
			if j == i {
				return fmt.Errorf("graph: CSR self-loop at %d", c.idx.ID(i))
			}
			if c.ids[c.off[i]+int32(k)] != c.idx.ID(j) {
				return fmt.Errorf("graph: CSR id table mismatch at %d", c.idx.ID(i))
			}
			if !c.HasEdge(j, i) {
				return fmt.Errorf("graph: CSR asymmetric edge (%d,%d)", c.idx.ID(i), c.idx.ID(j))
			}
		}
	}
	return nil
}
