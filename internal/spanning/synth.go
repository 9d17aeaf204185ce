package spanning

import (
	"fmt"
	"math/rand"

	"mdegst/internal/graph"
	"mdegst/internal/tree"
)

// Sequential spanning-tree builders. These are experiment-harness helpers —
// they construct initial trees of controlled shape centrally, standing in
// for whatever distributed construction a deployment would use (the paper
// treats the initial tree as given). They work on the snapshot's dense
// indices, whose ascending order is the NodeID order, so "ascending
// neighbour" scans visit nodes exactly as an ID-ordered scan would.

// BFSTree returns the breadth-first spanning tree of c rooted at root,
// scanning neighbours in ascending order.
func BFSTree(c *graph.CSR, root graph.NodeID) (*tree.Dense, error) {
	r, ok := c.Index().Of(root)
	if !ok {
		return nil, fmt.Errorf("spanning: BFS root %d not in graph", root)
	}
	parent, reached := c.BFSParents(r)
	if reached != c.N() {
		return nil, fmt.Errorf("spanning: graph not connected from %d", root)
	}
	return tree.FromParentDense(c.Index(), r, parent)
}

// DFSTree returns the depth-first spanning tree of c rooted at root,
// scanning neighbours in ascending order — the same visit order as the
// distributed token DFS, so the two produce identical trees.
func DFSTree(c *graph.CSR, root graph.NodeID) (*tree.Dense, error) {
	r, ok := c.Index().Of(root)
	if !ok {
		return nil, fmt.Errorf("spanning: DFS root %d not in graph", root)
	}
	parent := newParentTable(c.N())
	next := make([]int32, c.N()) // cursor into each node's neighbour list
	reached := 1
	for stack := []int32{r}; len(stack) > 0; {
		u := stack[len(stack)-1]
		ns := c.Neighbors(u)
		if int(next[u]) == len(ns) {
			stack = stack[:len(stack)-1]
			continue
		}
		w := ns[next[u]]
		next[u]++
		if parent[w] == tree.NoParent && w != r {
			parent[w] = u
			reached++
			stack = append(stack, w)
		}
	}
	if reached != c.N() {
		return nil, fmt.Errorf("spanning: graph not connected from %d", root)
	}
	return tree.FromParentDense(c.Index(), r, parent)
}

// StarTree returns an adversarially high-degree spanning tree: it roots at a
// maximum-degree vertex, attaches the whole neighbourhood of each processed
// node, and processes high-degree nodes first. The root's tree degree equals
// the graph's maximum degree — the paper's worst-case initial k.
func StarTree(c *graph.CSR) (*tree.Dense, error) {
	if c.N() == 0 {
		return nil, fmt.Errorf("spanning: empty graph")
	}
	// hub orders the greedy adoption: graph degree descending, then ID, so
	// hubs adopt entire neighbourhoods.
	hub := func(u, v int32) bool {
		if du, dv := c.Degree(u), c.Degree(v); du != dv {
			return du > dv
		}
		return u < v
	}
	root := int32(0)
	for v := int32(1); int(v) < c.N(); v++ {
		if hub(v, root) {
			root = v
		}
	}
	parent := newParentTable(c.N())
	reached := 1
	queue := make([]int32, 1, c.N())
	for queue[0] = root; len(queue) > 0; {
		best := 0
		for i, v := range queue {
			if hub(v, queue[best]) {
				best = i
			}
		}
		u := queue[best]
		queue[best] = queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, w := range c.Neighbors(u) {
			if parent[w] == tree.NoParent && w != root {
				parent[w] = u
				reached++
				queue = append(queue, w)
			}
		}
	}
	if reached != c.N() {
		return nil, fmt.Errorf("spanning: graph not connected")
	}
	return tree.FromParentDense(c.Index(), root, parent)
}

// RandomST returns a uniformly random spanning tree of c (Wilson's
// loop-erased random walk algorithm), rooted at a uniformly random node.
func RandomST(c *graph.CSR, seed int64) (*tree.Dense, error) {
	if c.N() == 0 {
		return nil, fmt.Errorf("spanning: graph not connected")
	}
	if _, reached := c.BFSParents(0); reached != c.N() {
		return nil, fmt.Errorf("spanning: graph not connected")
	}
	rng := rand.New(rand.NewSource(seed))
	root := int32(rng.Intn(c.N()))
	inTree := make([]bool, c.N())
	inTree[root] = true
	parent := newParentTable(c.N())
	// next records the successor of each node on the current walk; loop
	// erasure is overwriting, and the retrace below reads only entries the
	// current walk wrote.
	next := make([]int32, c.N())
	for start := int32(0); int(start) < c.N(); start++ {
		cur := start
		for !inTree[cur] {
			ns := c.Neighbors(cur)
			next[cur] = ns[rng.Intn(len(ns))]
			cur = next[cur]
		}
		for cur = start; !inTree[cur]; cur = next[cur] {
			inTree[cur] = true
			parent[cur] = next[cur]
		}
	}
	return tree.FromParentDense(c.Index(), root, parent)
}

func newParentTable(n int) []int32 {
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = tree.NoParent
	}
	return parent
}
