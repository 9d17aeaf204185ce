// Package exact computes ground truth for the quality experiments: the
// optimal spanning tree degree Δ* by branch and bound (small graphs), and
// cheap lower bounds on Δ* for graphs too large to solve exactly. The
// paper's guarantee under scrutiny is "degree at most Δ*+1".
package exact

import (
	"fmt"
	"sort"

	"mdegst/internal/graph"
	"mdegst/internal/tree"
)

// MaxExactNodes bounds the graph size accepted by MinDegree; beyond it the
// search space is impractical and callers should use DegreeLowerBound.
const MaxExactNodes = 24

// MinDegree returns Δ*, the minimum over all spanning trees of the maximum
// degree, together with one optimal tree (rooted at the smallest node).
func MinDegree(g *graph.Graph) (int, *tree.Tree, error) {
	if !g.IsConnected() {
		return 0, nil, fmt.Errorf("exact: graph not connected")
	}
	if g.N() > MaxExactNodes {
		return 0, nil, fmt.Errorf("exact: %d nodes exceeds limit %d", g.N(), MaxExactNodes)
	}
	if g.N() == 1 {
		return 0, tree.New(g.Nodes()[0]), nil
	}
	c := g.Compile()
	lb := degreeLowerBound(c)
	for d := lb; d < g.N(); d++ {
		if edges := spanningTreeWithCap(c, d); edges != nil {
			t, err := orient(g, edges)
			if err != nil {
				return 0, nil, err
			}
			return d, t, nil
		}
	}
	return 0, nil, fmt.Errorf("exact: no spanning tree found (graph disconnected?)")
}

// HasSpanningTreeWithin reports whether g has a spanning tree of maximum
// degree at most d.
func HasSpanningTreeWithin(g *graph.Graph, d int) (bool, error) {
	if !g.IsConnected() {
		return false, fmt.Errorf("exact: graph not connected")
	}
	if g.N() > MaxExactNodes {
		return false, fmt.Errorf("exact: %d nodes exceeds limit %d", g.N(), MaxExactNodes)
	}
	if g.N() == 1 {
		return d >= 0, nil
	}
	return spanningTreeWithCap(g.Compile(), d) != nil, nil
}

// DegreeLowerBound returns a lower bound on Δ*: removing any vertex v splits
// a spanning tree into deg_T(v) subtrees, each containing a component of
// G - v, so Δ* >= components(G-v) for every v; and any tree on n >= 3 nodes
// has a vertex of degree at least 2. It runs in O(n+m) time and memory, so
// it certifies runs at any size.
func DegreeLowerBound(g *graph.Graph) int {
	return degreeLowerBound(g.Compile())
}

// degreeLowerBound is DegreeLowerBound over a snapshot. One iterative DFS
// with articulation-point low-links yields components(G-v) for every v at
// once. With C the number of components of G, removing v leaves the other
// C-1 components untouched and splits v's own component into one piece
// per DFS child c with low[c] >= disc[v] (no back edge from c's subtree
// climbs above v), plus the piece holding v's DFS parent when v is not a
// root:
//
//	components(G-v) = C - 1 + #{children c : low[c] >= disc[v]} + [v not a root]
//
// A root's children always qualify, and an isolated vertex contributes
// C - 1.
func degreeLowerBound(c *graph.CSR) int {
	n := c.N()
	lb := 1
	if n >= 3 {
		lb = 2
	}
	if n == 0 {
		return lb
	}
	disc := make([]int32, n) // 1-based discovery time; 0 = unvisited
	low := make([]int32, n)
	next := make([]int32, n)  // cursor into each vertex's neighbour list
	split := make([]int32, n) // children c with low[c] >= disc[v]
	var stack []int32
	comps, clock, most := 0, int32(0), 0
	for s := int32(0); int(s) < n; s++ {
		if disc[s] != 0 {
			continue
		}
		comps++
		clock++
		disc[s], low[s] = clock, clock
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			if nb := c.Neighbors(u); int(next[u]) < len(nb) {
				w := nb[next[u]]
				next[u]++
				if disc[w] == 0 {
					clock++
					disc[w], low[w] = clock, clock
					stack = append(stack, w)
				} else if disc[w] < low[u] {
					low[u] = disc[w]
				}
				continue
			}
			// u is finished: split[u] is final, and u's parent (if any)
			// is the vertex below it on the stack.
			stack = stack[:len(stack)-1]
			pieces := int(split[u])
			if len(stack) > 0 {
				pieces++
				p := stack[len(stack)-1]
				if low[u] < low[p] {
					low[p] = low[u]
				}
				if low[u] >= disc[p] {
					split[p]++
				}
			}
			if pieces > most {
				most = pieces
			}
		}
	}
	if k := comps - 1 + most; k > lb {
		lb = k
	}
	return lb
}

// spanningTreeWithCap searches for a spanning tree with every degree at most
// cap, using include/exclude branch and bound over the edge list with
// union-find components, degree budgets and connectivity pruning. Endpoints
// are addressed through the snapshot's dense index.
func spanningTreeWithCap(c *graph.CSR, cap int) []graph.Edge {
	if cap < 1 {
		return nil
	}
	ix := c.Index()
	n := c.N()
	edges := c.Edges()
	deg := func(v graph.NodeID) int { return c.Degree(ix.MustOf(v)) }
	// Order edges to find feasible trees early: prefer edges whose
	// endpoints have few alternatives (low graph degree).
	sort.SliceStable(edges, func(i, j int) bool {
		di := deg(edges[i].U) + deg(edges[i].V)
		dj := deg(edges[j].U) + deg(edges[j].V)
		return di < dj
	})

	s := &capSearch{
		n:      n,
		idx:    ix,
		edges:  edges,
		budget: make([]int, n),
		uf:     newUnionFind(n),
		alive:  make([]bool, len(edges)),
	}
	for i := range s.budget {
		s.budget[i] = cap
	}
	for i := range s.alive {
		s.alive[i] = true
	}
	if s.search(0, n-1) {
		return s.chosen
	}
	return nil
}

type capSearch struct {
	n      int
	idx    *graph.Index
	edges  []graph.Edge
	budget []int
	uf     *unionFind
	alive  []bool
	chosen []graph.Edge
}

// search decides edge i; need is the number of edges still required.
func (s *capSearch) search(i, need int) bool {
	if need == 0 {
		return true
	}
	if i >= len(s.edges) || len(s.edges)-i < need {
		return false
	}
	if !s.connectable(i) {
		return false
	}
	e := s.edges[i]
	ui, vi := int(s.idx.MustOf(e.U)), int(s.idx.MustOf(e.V))

	// Branch 1: include e when budgets allow and it joins two components.
	if s.budget[ui] > 0 && s.budget[vi] > 0 && s.uf.find(ui) != s.uf.find(vi) {
		mark := s.uf.mark()
		s.uf.union(ui, vi)
		s.budget[ui]--
		s.budget[vi]--
		s.chosen = append(s.chosen, e)
		if s.search(i+1, need-1) {
			return true
		}
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.budget[ui]++
		s.budget[vi]++
		s.uf.undo(mark)
	}

	// Branch 2: exclude e.
	s.alive[i] = false
	ok := s.search(i+1, need)
	s.alive[i] = true
	return ok
}

// connectable prunes branches where the remaining usable edges cannot
// connect the current components.
func (s *capSearch) connectable(i int) bool {
	reach := newUnionFind(s.n)
	for j := 0; j < s.n; j++ {
		reach.union(s.uf.find(j), j)
	}
	for j := i; j < len(s.edges); j++ {
		if !s.alive[j] {
			continue
		}
		e := s.edges[j]
		ui, vi := int(s.idx.MustOf(e.U)), int(s.idx.MustOf(e.V))
		if s.budget[ui] > 0 && s.budget[vi] > 0 {
			reach.union(ui, vi)
		}
	}
	r0 := reach.find(0)
	for j := 1; j < s.n; j++ {
		if reach.find(j) != r0 {
			return false
		}
	}
	return true
}

// unionFind with union-by-size and an undo log (no path compression so
// undos are exact).
type unionFind struct {
	parent []int
	size   []int
	log    []int // roots attached, for undo
}

func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), size: make([]int, n)}
	for i := range uf.parent {
		uf.parent[i] = i
		uf.size[i] = 1
	}
	return uf
}

func (uf *unionFind) find(x int) int {
	for uf.parent[x] != x {
		x = uf.parent[x]
	}
	return x
}

func (uf *unionFind) union(a, b int) {
	ra, rb := uf.find(a), uf.find(b)
	if ra == rb {
		return
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = ra
	uf.size[ra] += uf.size[rb]
	uf.log = append(uf.log, rb)
}

func (uf *unionFind) mark() int { return len(uf.log) }

func (uf *unionFind) undo(mark int) {
	for len(uf.log) > mark {
		rb := uf.log[len(uf.log)-1]
		uf.log = uf.log[:len(uf.log)-1]
		ra := uf.parent[rb]
		uf.size[ra] -= uf.size[rb]
		uf.parent[rb] = rb
	}
}

func orient(g *graph.Graph, edges []graph.Edge) (*tree.Tree, error) {
	st := graph.New()
	for _, v := range g.Nodes() {
		st.AddNode(v)
	}
	for _, e := range edges {
		st.MustAddEdge(e.U, e.V)
	}
	root := g.Nodes()[0]
	parent := st.BFSParents(root)
	if len(parent) != g.N() {
		return nil, fmt.Errorf("exact: selected edges do not span")
	}
	return tree.FromParentMap(root, parent)
}
