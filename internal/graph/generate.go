package graph

import (
	"fmt"
	"math"
	"math/rand"
)

// Generators build the workload families used throughout the experiment
// harness. Every generator is deterministic for a fixed seed, produces a
// connected graph, and labels nodes 0..n-1 (use RelabelRandom to scramble
// identities when testing ID-dependence).

// Ring returns the n-cycle (n >= 3).
func Ring(n int) *Graph {
	mustAtLeast("Ring", n, 3)
	g := newSized(n)
	for i := 0; i < n; i++ {
		g.MustAddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return g
}

// Path returns the n-node path graph (n >= 1).
func Path(n int) *Graph {
	mustAtLeast("Path", n, 1)
	g := newSized(n)
	g.AddNode(0)
	for i := 1; i < n; i++ {
		g.MustAddEdge(NodeID(i-1), NodeID(i))
	}
	return g
}

// Complete returns K_n (n >= 1).
func Complete(n int) *Graph {
	mustAtLeast("Complete", n, 1)
	g := newSized(n)
	g.AddNode(0)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.MustAddEdge(NodeID(i), NodeID(j))
		}
	}
	return g
}

// Star returns the star K_{1,n-1} with centre 0 (n >= 2). Its unique
// spanning tree has degree n-1, the paper's worst case.
func Star(n int) *Graph {
	mustAtLeast("Star", n, 2)
	g := newSized(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, NodeID(i))
	}
	return g
}

// Wheel returns the wheel graph: an (n-1)-cycle plus a hub adjacent to every
// cycle node (n >= 4). Its minimum degree spanning tree has degree 2 or 3
// while the hub-star spanning tree has degree n-1.
func Wheel(n int) *Graph {
	mustAtLeast("Wheel", n, 4)
	g := newSized(n)
	for i := 1; i < n; i++ {
		g.MustAddEdge(0, NodeID(i))
		next := i + 1
		if next == n {
			next = 1
		}
		g.MustAddEdge(NodeID(i), NodeID(next))
	}
	return g
}

// Grid returns the rows x cols grid graph.
func Grid(rows, cols int) *Graph {
	mustAtLeast("Grid rows", rows, 1)
	mustAtLeast("Grid cols", cols, 1)
	if rows*cols < 2 {
		panic("graph: Grid needs at least 2 nodes")
	}
	g := newSized(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return g
}

// Torus returns the rows x cols torus (grid with wraparound); rows, cols >= 3.
func Torus(rows, cols int) *Graph {
	mustAtLeast("Torus rows", rows, 3)
	mustAtLeast("Torus cols", cols, 3)
	g := newSized(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.MustAddEdge(id(r, c), id(r, (c+1)%cols))
			g.MustAddEdge(id(r, c), id((r+1)%rows, c))
		}
	}
	return g
}

// Hypercube returns the d-dimensional hypercube on 2^d nodes
// (1 <= d <= 30).
func Hypercube(d int) *Graph {
	mustAtLeast("Hypercube", d, 1)
	if d > 30 {
		panic(fmt.Sprintf("graph: Hypercube parameter %d above maximum 30", d))
	}
	n := 1 << d
	g := newSized(n)
	for i := 0; i < n; i++ {
		for b := 0; b < d; b++ {
			j := i ^ (1 << b)
			if i < j {
				g.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	return g
}

// CompleteBipartite returns K_{a,b} with parts 0..a-1 and a..a+b-1.
func CompleteBipartite(a, b int) *Graph {
	mustAtLeast("CompleteBipartite a", a, 1)
	mustAtLeast("CompleteBipartite b", b, 1)
	g := newSized(a + b)
	for i := 0; i < a; i++ {
		for j := 0; j < b; j++ {
			g.MustAddEdge(NodeID(i), NodeID(a+j))
		}
	}
	return g
}

// Lollipop returns a clique of size k joined by an edge to a path of length
// tail (total n = k + tail nodes).
func Lollipop(k, tail int) *Graph {
	mustAtLeast("Lollipop clique", k, 3)
	mustAtLeast("Lollipop tail", tail, 1)
	g := Complete(k)
	prev := NodeID(k - 1)
	for i := 0; i < tail; i++ {
		next := NodeID(k + i)
		g.MustAddEdge(prev, next)
		prev = next
	}
	return g
}

// Caterpillar returns a spine path of the given length with legs pendant
// nodes attached to every spine node. Its MDegST degree is legs+2 in the
// middle of the spine.
func Caterpillar(spine, legs int) *Graph {
	mustAtLeast("Caterpillar spine", spine, 2)
	mustAtLeast("Caterpillar legs", legs, 0)
	g := Path(spine)
	next := spine
	for s := 0; s < spine; s++ {
		for l := 0; l < legs; l++ {
			g.MustAddEdge(NodeID(s), NodeID(next))
			next++
		}
	}
	return g
}

// Gnp returns an Erdős–Rényi G(n,p) graph made connected: after sampling,
// components are joined by single random edges. For p well above the
// connectivity threshold the patch-up is almost always a no-op.
func Gnp(n int, p float64, seed int64) *Graph {
	mustAtLeast("Gnp", n, 2)
	if p < 0 || p > 1 {
		panic(fmt.Sprintf("graph: Gnp probability %v out of range", p))
	}
	rng := rand.New(rand.NewSource(seed))
	g := newSized(n)
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				g.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	connect(g, rng)
	return g
}

// Gnm returns a uniform random connected graph with n nodes and max(m, n-1)
// edges: a uniform random spanning tree (a random Prüfer sequence) plus
// random extra edges.
func Gnm(n, m int, seed int64) *Graph {
	mustAtLeast("Gnm", n, 2)
	rng := rand.New(rand.NewSource(seed))
	g := randomTree(n, rng)
	maxM := n * (n - 1) / 2
	if m > maxM {
		m = maxM
	}
	for g.M() < m {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// RandomTree returns a uniform random labelled tree on n nodes.
func RandomTree(n int, seed int64) *Graph {
	mustAtLeast("RandomTree", n, 1)
	return randomTree(n, rand.New(rand.NewSource(seed)))
}

// randomTree samples a uniform spanning tree of K_n via a random Prüfer
// sequence.
func randomTree(n int, rng *rand.Rand) *Graph {
	g := newSized(n)
	if n == 1 {
		g.AddNode(0)
		return g
	}
	if n == 2 {
		g.MustAddEdge(0, 1)
		return g
	}
	prufer := make([]int, n-2)
	deg := make([]int, n)
	for i := range prufer {
		prufer[i] = rng.Intn(n)
		deg[prufer[i]]++
	}
	// Decode: repeatedly attach the smallest leaf to the next code entry.
	// Leaves only appear at the pointer's scan or when a code entry's last
	// occurrence turns its node into one; a node below the pointer that
	// does is the smallest leaf at once, so the pointer moves forward only
	// and the decode is linear.
	ptr := 0
	for deg[ptr] != 0 {
		ptr++
	}
	leaf := ptr
	for _, code := range prufer {
		g.MustAddEdge(NodeID(leaf), NodeID(code))
		if deg[code]--; deg[code] == 0 && code < ptr {
			leaf = code
			continue
		}
		for ptr++; deg[ptr] != 0; ptr++ {
		}
		leaf = ptr
	}
	// The largest node is never the smallest leaf while another exists.
	g.MustAddEdge(NodeID(leaf), NodeID(n-1))
	return g
}

// TreePlusChords returns a uniform random tree with extra random chord
// edges added on top — a family where the initial spanning tree shape is
// easy to control.
func TreePlusChords(n, chords int, seed int64) *Graph {
	return Gnm(n, n-1+chords, seed)
}

// HamiltonianPlusChords returns a Hamiltonian path 0-1-...-n-1 plus the given
// number of random chord edges. By construction its optimal spanning tree
// degree is 2, which makes the Δ* ground truth free for any size.
func HamiltonianPlusChords(n, chords int, seed int64) *Graph {
	mustAtLeast("HamiltonianPlusChords", n, 2)
	rng := rand.New(rand.NewSource(seed))
	g := Path(n)
	maxM := n * (n - 1) / 2
	want := n - 1 + chords
	if want > maxM {
		want = maxM
	}
	for g.M() < want {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v)
		}
	}
	return g
}

// RandomGeometric places n points uniformly in the unit square and connects
// pairs within the given radius, then patches connectivity with the shortest
// available inter-component hops.
func RandomGeometric(n int, radius float64, seed int64) *Graph {
	mustAtLeast("RandomGeometric", n, 2)
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	g := newSized(n)
	for i := 0; i < n; i++ {
		g.AddNode(NodeID(i))
	}
	r2 := radius * radius
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx, dy := xs[i]-xs[j], ys[i]-ys[j]
			if dx*dx+dy*dy <= r2 {
				g.MustAddEdge(NodeID(i), NodeID(j))
			}
		}
	}
	// Patch connectivity with the geometrically closest cross pair so the
	// result still looks like a radio network.
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			break
		}
		bestD := math.Inf(1)
		var bu, bv NodeID
		for _, u := range comps[0] {
			for _, comp := range comps[1:] {
				for _, v := range comp {
					dx, dy := xs[u]-xs[v], ys[u]-ys[v]
					if d := dx*dx + dy*dy; d < bestD {
						bestD, bu, bv = d, u, v
					}
				}
			}
		}
		g.MustAddEdge(bu, bv)
	}
	return g
}

// BarabasiAlbert returns a preferential-attachment graph: a k-clique seed,
// then each new node attaches to k existing nodes chosen proportionally to
// degree. Produces the skewed hub degrees that motivate degree-bounded
// broadcast trees.
func BarabasiAlbert(n, k int, seed int64) *Graph {
	mustAtLeast("BarabasiAlbert", n, 2)
	mustAtLeast("BarabasiAlbert k", k, 1)
	if k >= n {
		k = n - 1
	}
	rng := rand.New(rand.NewSource(seed))
	g := Complete(k + 1)
	// repeated-endpoints list implements preferential attachment
	var ends []NodeID
	for _, e := range g.Edges() {
		ends = append(ends, e.U, e.V)
	}
	for i := k + 1; i < n; i++ {
		chosen := make(map[NodeID]bool)
		var order []NodeID
		for len(chosen) < k {
			v := ends[rng.Intn(len(ends))]
			if !chosen[v] {
				chosen[v] = true
				order = append(order, v)
			}
		}
		for _, v := range order {
			g.MustAddEdge(NodeID(i), v)
			ends = append(ends, NodeID(i), v)
		}
	}
	return g
}

// connect joins the components of g with random single edges (in place).
func connect(g *Graph, rng *rand.Rand) {
	for {
		comps := g.Components()
		if len(comps) <= 1 {
			return
		}
		a := comps[0][rng.Intn(len(comps[0]))]
		c := comps[1+rng.Intn(len(comps)-1)]
		b := c[rng.Intn(len(c))]
		g.MustAddEdge(a, b)
	}
}

// RelabelRandom returns a copy of g whose node identities are a random
// permutation of widely spaced IDs, exercising the "named network" model
// where identities are arbitrary distinct values.
func RelabelRandom(g *Graph, seed int64) (*Graph, map[NodeID]NodeID) {
	rng := rand.New(rand.NewSource(seed))
	nodes := g.Nodes()
	perm := rng.Perm(len(nodes))
	mapping := make(map[NodeID]NodeID, len(nodes))
	for i, v := range nodes {
		mapping[v] = NodeID(perm[i]*7919 + 13) // spaced, non-contiguous
	}
	out := newSized(len(nodes))
	for _, v := range nodes {
		out.AddNode(mapping[v])
	}
	for _, e := range g.Edges() {
		out.MustAddEdge(mapping[e.U], mapping[e.V])
	}
	return out, mapping
}

func mustAtLeast(what string, v, min int) {
	if v < min {
		panic(fmt.Sprintf("graph: %s parameter %d below minimum %d", what, v, min))
	}
}
