// Package exact computes ground truth for the quality experiments: the
// optimal spanning tree degree Δ* by branch and bound (small graphs), and
// cheap lower bounds on Δ* for graphs too large to solve exactly. The
// paper's guarantee under scrutiny is "degree at most Δ*+1".
//
// The branch and bound tries caps from the lower bound upwards over one
// edge order, deciding edges in that order, include before exclude. Two
// prunes cut a search node: the edges still allowed cannot connect the
// current components, or a greedy vertex cover of them cannot absorb the
// edges still needed within its budgets. Both cut only subtrees that hold
// no tree within the cap, so the first tree found, the witness, is the one
// an unpruned search finds. The search state lives in buffers built once
// per graph, and no search node allocates.
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
	s := newCapSearch(c)
	for d := DegreeLowerBound(c); d < c.N(); d++ {
		if edges := s.within(d); edges != nil {
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
	return newCapSearch(c).within(d) != nil, nil
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
// has a vertex of degree at least 2, on 2 nodes one of degree 1, while the
// tree on one node (or none) has degree 0. It runs in O(n+m) time and
// memory, so it certifies runs at any size.
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
	if n <= 1 {
		return 0
	}
	lb := 1
	if n >= 3 {
		lb = 2
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

// capSearch is an include/exclude branch and bound over the dense edge
// list for a spanning tree whose degrees stay within a cap. The edge order
// and every buffer are built once per graph and reused across caps, so no
// search node allocates.
type capSearch struct {
	edges  [][2]int32
	budget []int32 // degree still allowed at each node
	chosen [][2]int32

	// Scratch rebuilt at every search node.
	reach  []int32 // forest: the chosen edges' components, then joined by usable edges
	comp   []int32 // root of each node's component of the chosen edges
	udeg   []int32 // usable edges at each node
	cover  []bool
	usable []int32 // indices of the usable edges
}

func newCapSearch(c *graph.CSR) *capSearch {
	n := c.N()
	edges := c.DenseEdges(nil)
	// Order edges to find feasible trees early: prefer edges whose
	// endpoints have few alternatives (low graph degree).
	sort.SliceStable(edges, func(i, j int) bool {
		di := c.Degree(edges[i][0]) + c.Degree(edges[i][1])
		dj := c.Degree(edges[j][0]) + c.Degree(edges[j][1])
		return di < dj
	})
	return &capSearch{
		edges:  edges,
		budget: make([]int32, n),
		chosen: make([][2]int32, 0, n-1),
		reach:  make([]int32, n),
		comp:   make([]int32, n),
		udeg:   make([]int32, n),
		cover:  make([]bool, n),
		usable: make([]int32, 0, len(edges)),
	}
}

// within returns the edges of the first spanning tree in search order
// whose degrees are all at most cap, or nil when there is none. A failed
// search leaves s as it found it, ready for the next cap.
func (s *capSearch) within(cap int) [][2]int32 {
	if cap < 1 {
		return nil
	}
	for v := range s.budget {
		s.budget[v] = int32(cap)
	}
	if s.search(0, len(s.budget)-1) {
		return s.chosen
	}
	return nil
}

// search decides edge i; need is the number of edges still required.
func (s *capSearch) search(i, need int) bool {
	if need == 0 {
		return true
	}
	if i >= len(s.edges) || len(s.edges)-i < need {
		return false
	}
	s.components()
	if !s.connectable(i, need) || !s.coverable(i, need) {
		return false
	}
	e := s.edges[i]
	u, v := e[0], e[1]

	// Branch 1: include e when budgets allow and it joins two components.
	if s.budget[u] > 0 && s.budget[v] > 0 && s.comp[u] != s.comp[v] {
		s.budget[u]--
		s.budget[v]--
		s.chosen = append(s.chosen, e)
		if s.search(i+1, need-1) {
			return true
		}
		s.chosen = s.chosen[:len(s.chosen)-1]
		s.budget[u]++
		s.budget[v]++
	}

	// Branch 2: exclude e.
	return s.search(i+1, need)
}

// components builds the chosen edges' components in the reach forest and
// records each node's root in comp.
func (s *capSearch) components() {
	for v := range s.reach {
		s.reach[v] = int32(v)
	}
	for _, e := range s.chosen {
		s.reach[s.root(e[1])] = s.root(e[0])
	}
	for v := range s.comp {
		s.comp[v] = s.root(int32(v))
	}
}

// root finds v's root in the reach forest, halving the path as it goes.
func (s *capSearch) root(v int32) int32 {
	for s.reach[v] != v {
		s.reach[v] = s.reach[s.reach[v]]
		v = s.reach[v]
	}
	return v
}

// connectable prunes branches where the edges from i on that both budgets
// allow cannot join the need+1 components in the reach forest into one.
// It merges them in that forest.
func (s *capSearch) connectable(i, need int) bool {
	comps := need + 1
	for _, e := range s.edges[i:] {
		if s.budget[e[0]] == 0 || s.budget[e[1]] == 0 {
			continue
		}
		a, b := s.root(e[0]), s.root(e[1])
		if a == b {
			continue
		}
		s.reach[b] = a
		if comps--; comps == 1 {
			return true
		}
	}
	return false
}

// coverable prunes branches whose remaining edges cannot supply need more
// tree edges within the budgets. An edge is usable when its index is at
// least i, both budgets are positive and its endpoints lie in different
// components; every edge chosen below this node is usable now. Each one
// spends a unit of budget at some vertex of a vertex cover of the usable
// edges, and a cover vertex v can take at most min(budget, usable degree)
// of them, so need edges fit only if those minima sum to at least need.
// The cover is greedy: each uncovered edge adds its endpoint with more
// usable edges.
func (s *capSearch) coverable(i, need int) bool {
	clear(s.udeg)
	clear(s.cover)
	s.usable = s.usable[:0]
	for j := i; j < len(s.edges); j++ {
		u, v := s.edges[j][0], s.edges[j][1]
		if s.budget[u] > 0 && s.budget[v] > 0 && s.comp[u] != s.comp[v] {
			s.udeg[u]++
			s.udeg[v]++
			s.usable = append(s.usable, int32(j))
		}
	}
	sum := 0
	for _, j := range s.usable {
		u, v := s.edges[j][0], s.edges[j][1]
		if s.cover[u] || s.cover[v] {
			continue
		}
		if s.udeg[v] > s.udeg[u] {
			u = v
		}
		s.cover[u] = true
		if sum += int(min(s.budget[u], s.udeg[u])); sum >= need {
			return true
		}
	}
	return false
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
