package exact

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mdegst/internal/alloctest"
	"mdegst/internal/graph"
)

// refWithCap is the branch and bound before the cover prune, kept as the
// differential oracle: it sorts the edges for every cap, tracks components
// in a union-find with an undo log and prunes only on connectivity,
// rebuilding a union-find per search node.
func refWithCap(c *graph.CSR, cap int) [][2]int32 {
	if cap < 1 {
		return nil
	}
	n := c.N()
	edges := c.DenseEdges(nil)
	sort.SliceStable(edges, func(i, j int) bool {
		di := c.Degree(edges[i][0]) + c.Degree(edges[i][1])
		dj := c.Degree(edges[j][0]) + c.Degree(edges[j][1])
		return di < dj
	})
	s := &refSearch{n: n, edges: edges, budget: make([]int, n), uf: newUnionFind(n), alive: make([]bool, len(edges))}
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

type refSearch struct {
	n      int
	edges  [][2]int32
	budget []int
	uf     *unionFind
	alive  []bool
	chosen [][2]int32
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

func (s *refSearch) search(i, need int) bool {
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
	s.alive[i] = false
	ok := s.search(i+1, need)
	s.alive[i] = true
	return ok
}

func (s *refSearch) connectable(i int) bool {
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

// checkAgainstRef requires the pruned search to agree with refWithCap at
// every cap from 0 to n (the same edges in the same order, or none) and
// MinDegree to return the reference's Δ* and witness edge set.
func checkAgainstRef(t *testing.T, name string, c *graph.CSR) int {
	t.Helper()
	n := c.N()
	opt := -1
	var witness [][2]int32
	for cap := 0; cap <= n; cap++ {
		want := refWithCap(c, cap)
		if got := newCapSearch(c).within(cap); !slices.Equal(got, want) {
			t.Fatalf("%s cap %d: edges %v, reference %v", name, cap, got, want)
		}
		ok, err := HasSpanningTreeWithin(c, cap)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ok != (want != nil) {
			t.Fatalf("%s cap %d: HasSpanningTreeWithin %v, reference %v", name, cap, ok, want != nil)
		}
		if want != nil && opt < 0 {
			opt, witness = cap, want
		}
	}
	d, tr, err := MinDegree(c)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if d != opt {
		t.Fatalf("%s: Δ* %d, reference %d", name, d, opt)
	}
	for _, e := range witness {
		if !tr.HasEdge(e[0], e[1]) {
			t.Fatalf("%s: witness lacks reference edge %v", name, e)
		}
	}
	return d
}

// TestSearchMatchesReference holds the pruned search to the connectivity-
// only reference on 320 seeded connected graphs of up to 12 nodes, from
// trees to near-complete graphs, at every cap.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for i := 0; i < 320; i++ {
		n := 2 + rng.Intn(11)
		var g *graph.Graph
		switch i % 4 {
		case 0:
			g = graph.Gnm(n, n-1+rng.Intn(n*(n-1)/2-n+2), rng.Int63())
		case 1:
			g = graph.Gnp(n, 0.1+0.5*rng.Float64(), rng.Int63())
		case 2:
			g = graph.BarabasiAlbert(max(n, 3), 1+rng.Intn(2), rng.Int63())
		default:
			g = graph.RandomTree(n, rng.Int63())
		}
		checkAgainstRef(t, fmt.Sprintf("case %d (n=%d m=%d)", i, g.N(), g.M()), g.Compile())
	}
}

// TestSearchBipartite runs every K_{a,b} with 1 <= a <= 4 and a <= b <= 9
// through the reference comparison and checks Δ* = ⌈(a+b-1)/a⌉. For most
// of them that optimum exceeds the cut-vertex bound, so the search must
// refute caps the bound allows, the case the cover prune is for.
func TestSearchBipartite(t *testing.T) {
	for a := 1; a <= 4; a++ {
		for b := a; b <= 9; b++ {
			name := fmt.Sprintf("K%d,%d", a, b)
			want := (a + b - 1 + a - 1) / a
			if d := checkAgainstRef(t, name, graph.CompleteBipartite(a, b).Compile()); d != want {
				t.Errorf("%s: Δ* %d, want %d", name, d, want)
			}
		}
	}
}

// TestMinDegreeAllocBudget holds MinDegree on K_{3,8} (cut-vertex bound 2,
// Δ* 4) to a recorded allocation budget: the buffers of one search reused
// across caps 2, 3 and 4, and none per search node.
func TestMinDegreeAllocBudget(t *testing.T) {
	c := graph.CompleteBipartite(3, 8).Compile()
	alloctest.Check(t, 20, 46, func() {
		if d, _, err := MinDegree(c); err != nil || d != 4 {
			t.Fatalf("Δ* = %d, %v", d, err)
		}
	})
}
