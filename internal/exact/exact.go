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
// degree, together with one optimal tree (rooted at dense node 0, the
// smallest node).
func MinDegree(c *graph.CSR) (int, *tree.Dense, error) {
	if err := checkExact(c); err != nil {
		return 0, nil, err
	}
	if c.N() == 1 {
		return 0, tree.NewDense(c.Index(), 0), nil
	}
	for d := DegreeLowerBound(c); d < c.N(); d++ {
		if edges := spanningTreeWithCap(c, d); edges != nil {
			t, err := orient(c, edges)
			if err != nil {
				return 0, nil, err
			}
			return d, t, nil
		}
	}
	return 0, nil, fmt.Errorf("exact: no spanning tree found (graph disconnected?)")
}

// HasSpanningTreeWithin reports whether c has a spanning tree of maximum
// degree at most d.
func HasSpanningTreeWithin(c *graph.CSR, d int) (bool, error) {
	if err := checkExact(c); err != nil {
		return false, err
	}
	if c.N() == 1 {
		return d >= 0, nil
	}
	return spanningTreeWithCap(c, d) != nil, nil
}

// checkExact rejects graphs the branch and bound cannot answer.
func checkExact(c *graph.CSR) error {
	if c.N() == 0 {
		return fmt.Errorf("exact: graph not connected")
	}
	if _, reached := c.BFSParents(0); reached != c.N() {
		return fmt.Errorf("exact: graph not connected")
	}
	if c.N() > MaxExactNodes {
		return fmt.Errorf("exact: %d nodes exceeds limit %d", c.N(), MaxExactNodes)
	}
	return nil
}

// DegreeLowerBound returns a lower bound on Δ*: removing any vertex v splits
// a spanning tree into deg_T(v) subtrees, each containing a component of
// G - v, so Δ* >= components(G-v) for every v; and any tree on n >= 3 nodes
// has a vertex of degree at least 2. It runs in O(n+m) time and memory, so
// it certifies runs at any size.
//
// One iterative DFS with articulation-point low-links yields
// components(G-v) for every v at once. With C the number of components of
// G, removing v leaves the other C-1 components untouched and splits v's
// own component into one piece per DFS child c with low[c] >= disc[v] (no
// back edge from c's subtree climbs above v), plus the piece holding v's
// DFS parent when v is not a root:
//
//	components(G-v) = C - 1 + #{children c : low[c] >= disc[v]} + [v not a root]
//
// A root's children always qualify, and an isolated vertex contributes
// C - 1.
func DegreeLowerBound(c *graph.CSR) int {
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
// cap, using include/exclude branch and bound over the dense edge list with
// union-find components, degree budgets and connectivity pruning.
func spanningTreeWithCap(c *graph.CSR, cap int) [][2]int32 {
	if cap < 1 {
		return nil
	}
	n := c.N()
	edges := c.DenseEdges(nil)
	// Order edges to find feasible trees early: prefer edges whose
	// endpoints have few alternatives (low graph degree).
	sort.SliceStable(edges, func(i, j int) bool {
		di := c.Degree(edges[i][0]) + c.Degree(edges[i][1])
		dj := c.Degree(edges[j][0]) + c.Degree(edges[j][1])
		return di < dj
	})

	s := &capSearch{
		n:      n,
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
	edges  [][2]int32
	budget []int
	uf     *unionFind
	alive  []bool
	chosen [][2]int32
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
	ui, vi := int(e[0]), int(e[1])

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
		ui, vi := int(s.edges[j][0]), int(s.edges[j][1])
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

// orient roots the spanning tree given by its edges at dense node 0.
func orient(c *graph.CSR, edges [][2]int32) (*tree.Dense, error) {
	adj := make([][]int32, c.N())
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], e[1])
		adj[e[1]] = append(adj[e[1]], e[0])
	}
	parent := make([]int32, c.N())
	for i := range parent {
		parent[i] = tree.NoParent
	}
	for queue := []int32{0}; len(queue) > 0; queue = queue[1:] {
		for _, w := range adj[queue[0]] {
			if parent[w] == tree.NoParent && w != 0 {
				parent[w] = queue[0]
				queue = append(queue, w)
			}
		}
	}
	return tree.FromParentDense(c.Index(), 0, parent)
}
