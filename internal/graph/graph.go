// Package graph provides the undirected graph substrate used by every other
// package in this module: a deterministic adjacency-list representation,
// workload generators for the experiment harness, structural queries
// (connectivity, components, degrees) and a plain-text edge-list format.
//
// All iteration orders are deterministic: node and neighbour lists are kept
// sorted, so algorithms built on top of this package are reproducible for a
// fixed seed regardless of map iteration order.
package graph

import (
	"fmt"
	"slices"
)

// NodeID names a processor in the network. The paper's model requires
// distinct identities; IDs need not be contiguous.
type NodeID int64

// Edge is an undirected edge stored in normalised form (U < V).
type Edge struct {
	U, V NodeID
}

// NewEdge returns the normalised edge {min(a,b), max(a,b)}.
func NewEdge(a, b NodeID) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{U: a, V: b}
}

// Other returns the endpoint of e that is not x. It panics if x is not an
// endpoint of e.
func (e Edge) Other(x NodeID) NodeID {
	switch x {
	case e.U:
		return e.V
	case e.V:
		return e.U
	}
	panic(fmt.Sprintf("graph: node %d is not an endpoint of edge %v", x, e))
}

func (e Edge) String() string { return fmt.Sprintf("(%d,%d)", e.U, e.V) }

// Graph is a simple undirected graph (no self-loops, no multi-edges).
// The zero value is an empty graph ready to use.
//
// Each node owns one slot: slot maps its identity to its position in adj,
// the sorted neighbour lists. An edge between two existing nodes costs two
// map lookups and no map write.
type Graph struct {
	slot  map[NodeID]int32
	adj   [][]NodeID // sorted neighbour lists, by slot
	nodes []NodeID   // sorted when not dirty
	dirty bool       // nodes needs re-sorting
	m     int
}

// New returns an empty graph.
func New() *Graph { return newSized(0) }

// newSized returns an empty graph with room for n nodes, which saves the
// generators that know their size the map's and the lists' growth.
func newSized(n int) *Graph {
	return &Graph{slot: make(map[NodeID]int32, n), adj: make([][]NodeID, 0, n), nodes: make([]NodeID, 0, n)}
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := newSized(g.N())
	for _, v := range g.Nodes() {
		c.AddNode(v)
	}
	for _, e := range g.Edges() {
		c.AddEdge(e.U, e.V)
	}
	return c
}

// AddNode inserts an isolated node. Adding an existing node is a no-op.
func (g *Graph) AddNode(v NodeID) { g.slotOf(v) }

// slotOf returns v's slot, adding v as an isolated node if it is new.
func (g *Graph) slotOf(v NodeID) int32 {
	if s, ok := g.slot[v]; ok {
		return s
	}
	if g.slot == nil {
		g.slot = make(map[NodeID]int32)
	}
	s := int32(len(g.adj))
	g.slot[v] = s
	g.adj = append(g.adj, nil)
	g.nodes = append(g.nodes, v)
	g.dirty = true
	return s
}

// HasNode reports whether v is a node of g.
func (g *Graph) HasNode(v NodeID) bool {
	_, ok := g.slot[v]
	return ok
}

// AddEdge inserts the undirected edge (u,v), creating missing endpoints.
// Self-loops and duplicate edges are rejected with an error.
func (g *Graph) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	su, sv := g.slotOf(u), g.slotOf(v)
	i, dup := slices.BinarySearch(g.adj[su], v)
	if dup {
		return fmt.Errorf("graph: duplicate edge %v", NewEdge(u, v))
	}
	g.adj[su] = slices.Insert(g.adj[su], i, v)
	j, _ := slices.BinarySearch(g.adj[sv], u)
	g.adj[sv] = slices.Insert(g.adj[sv], j, u)
	g.m++
	return nil
}

// MustAddEdge is AddEdge for construction code where duplicates are bugs.
func (g *Graph) MustAddEdge(u, v NodeID) {
	if err := g.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// RemoveEdge deletes the undirected edge (u,v) if present and reports
// whether it was removed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	su, okU := g.slot[u]
	sv, okV := g.slot[v]
	if !okU || !okV {
		return false
	}
	i, ok := slices.BinarySearch(g.adj[su], v)
	if !ok {
		return false
	}
	g.adj[su] = slices.Delete(g.adj[su], i, i+1)
	j, _ := slices.BinarySearch(g.adj[sv], u)
	g.adj[sv] = slices.Delete(g.adj[sv], j, j+1)
	g.m--
	return true
}

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	_, ok := slices.BinarySearch(g.Neighbors(u), v)
	return ok
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Nodes returns the nodes in ascending order. The returned slice is shared;
// callers must not modify it.
func (g *Graph) Nodes() []NodeID {
	if g.dirty {
		slices.Sort(g.nodes)
		g.dirty = false
	}
	return g.nodes
}

// Neighbors returns v's neighbours in ascending order. The returned slice is
// shared; callers must not modify it.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	if s, ok := g.slot[v]; ok {
		return g.adj[s]
	}
	return nil
}

// Degree returns the number of neighbours of v.
func (g *Graph) Degree(v NodeID) int { return len(g.Neighbors(v)) }

// MaxDegree returns the maximum node degree of g (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for _, v := range g.Nodes() {
		if d := g.Degree(v); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum node degree of g (0 for an empty graph).
func (g *Graph) MinDegree() int {
	if g.N() == 0 {
		return 0
	}
	min := g.N()
	for _, v := range g.Nodes() {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	return min
}

// DegreeHistogram returns a map degree -> number of nodes with that degree.
func (g *Graph) DegreeHistogram() map[int]int {
	h := make(map[int]int)
	for _, v := range g.Nodes() {
		h[g.Degree(v)]++
	}
	return h
}

// Edges returns all edges in normalised, ascending order.
func (g *Graph) Edges() []Edge {
	es := make([]Edge, 0, g.m)
	for _, u := range g.Nodes() {
		for _, v := range g.Neighbors(u) {
			if u < v {
				es = append(es, Edge{U: u, V: v})
			}
		}
	}
	return es
}

// IsTree reports whether g is connected and has exactly n-1 edges.
func (g *Graph) IsTree() bool {
	return g.N() > 0 && g.m == g.N()-1 && g.IsConnected()
}

// String returns a short human-readable summary.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Validate checks internal invariants (sorted adjacency, symmetry, edge
// count). It is used by tests and costs O(n+m).
func (g *Graph) Validate() error {
	count := 0
	for v, s := range g.slot {
		ns := g.adj[s]
		if !slices.IsSorted(ns) {
			return fmt.Errorf("graph: neighbours of %d not sorted", v)
		}
		for i, w := range ns {
			if i > 0 && ns[i-1] == w {
				return fmt.Errorf("graph: duplicate neighbour %d of %d", w, v)
			}
			if w == v {
				return fmt.Errorf("graph: self-loop at %d", v)
			}
			if !g.HasEdge(w, v) {
				return fmt.Errorf("graph: asymmetric edge (%d,%d)", v, w)
			}
			count++
		}
	}
	if count != 2*g.m {
		return fmt.Errorf("graph: edge count mismatch: have %d half-edges, want %d", count, 2*g.m)
	}
	return nil
}
