package fr

import (
	"fmt"

	"mdegst/internal/graph"
	"mdegst/internal/tree"
)

// The classic sequential Fürer–Raghavachari local search (the paper's
// reference [3]): starting from any spanning tree, repeatedly pick a
// non-tree edge whose fundamental cycle passes through a maximum-degree
// vertex while both endpoints have degree at most k-2, and exchange. The
// sequential algorithm sees the whole graph, so unlike the distributed
// protocol it can use any cycle, not only those through an owner's own
// fragments — it is the quality baseline in experiment E2/A4.

// Stats reports a sequential improvement run.
type Stats struct {
	Swaps         int
	InitialDegree int
	FinalDegree   int
}

// FurerRaghavachari improves the initial tree (which is not modified) until
// no exchange can reduce a maximum-degree vertex, returning the improved
// tree rooted at dense node 0, the graph's smallest node.
func FurerRaghavachari(c *graph.CSR, initial *tree.Dense) (*tree.Dense, Stats, error) {
	return localSearch(c, initial, false)
}

// Strict additionally clears degree-(k-1) blockers: when no exchange helps a
// maximum-degree vertex, it exchanges at degree-(k-1) vertices on cycles
// whose endpoints have degree at most k-3. Every exchange strictly decreases
// the potential sum of 3^degree, so the search terminates; the result
// satisfies the full local optimality of FR's Theorem 1 more often than the
// plain variant (measured in experiment A4).
func Strict(c *graph.CSR, initial *tree.Dense) (*tree.Dense, Stats, error) {
	return localSearch(c, initial, true)
}

func localSearch(c *graph.CSR, initial *tree.Dense, strict bool) (*tree.Dense, Stats, error) {
	if err := initial.Validate(c); err != nil {
		return nil, Stats{}, fmt.Errorf("fr: initial tree invalid: %w", err)
	}
	s := &search{c: c, d: initial.Clone(), mark: make([]int32, c.N())}
	stats := Stats{}
	stats.InitialDegree, _ = s.d.MaxDegree(nil)

	for {
		k, _ := s.d.MaxDegree(nil)
		if k <= 2 {
			break
		}
		if s.swapAt(k, k-2) {
			stats.Swaps++
			continue
		}
		if strict && k >= 3 && s.swapAt(k-1, k-3) {
			stats.Swaps++
			continue
		}
		break
	}

	s.d.Reroot(0)
	stats.FinalDegree, _ = s.d.MaxDegree(nil)
	return s.d, stats, nil
}

// search is one local-search run: the working tree plus the scratch of its
// tree-path queries.
type search struct {
	c    *graph.CSR
	d    *tree.Dense
	mark []int32 // ancestor stamps of the current path query
	pass int32
	path []int32
	up   []int32
}

// swapAt looks for a non-tree edge (a,b) with both endpoint degrees at most
// capDeg whose tree path contains a vertex of degree exactly targetDeg, and
// applies the exchange at the first such vertex from a. Candidate edges are
// scanned in ascending (a,b) order, a < b, so the search is deterministic.
func (s *search) swapAt(targetDeg, capDeg int) bool {
	c, d := s.c, s.d
	for a := int32(0); int(a) < c.N(); a++ {
		if d.Degree(a) > capDeg {
			continue
		}
		for _, b := range c.Neighbors(a) {
			if b <= a || d.HasEdge(a, b) || d.Degree(b) > capDeg {
				continue
			}
			path := s.treePath(a, b)
			for i := 1; i < len(path)-1; i++ {
				if d.Degree(path[i]) == targetDeg {
					s.exchange(path[i], path[i-1], a, b)
					return true
				}
			}
		}
	}
	return false
}

// treePath returns the tree path a ... b: a's ancestors are stamped, the
// walk up from b stops at the first stamped node (their meeting point), and
// b's half is appended in reverse.
func (s *search) treePath(a, b int32) []int32 {
	d := s.d
	s.pass++
	s.path = s.path[:0]
	for v := a; v != tree.NoParent; v = d.Parent(v) {
		s.mark[v] = s.pass
		s.path = append(s.path, v)
	}
	s.up = s.up[:0]
	v := b
	for ; s.mark[v] != s.pass; v = d.Parent(v) {
		s.up = append(s.up, v)
	}
	for i, x := range s.path {
		if x == v {
			s.path = s.path[:i+1]
			break
		}
	}
	for i := len(s.up) - 1; i >= 0; i-- {
		s.path = append(s.path, s.up[i])
	}
	return s.path
}

// exchange removes the tree edge (x,y), where y lies on a's side of x on
// the a-b path, and adds (a,b): the side that the cut detaches is re-rooted
// at its endpoint of (a,b) and hung under the other endpoint.
func (s *search) exchange(x, y, a, b int32) {
	d := s.d
	if d.Parent(y) == x {
		d.CutChild(x, y) // y's subtree holds a
		d.RerootSubtree(y, a)
		d.AttachExisting(b, a)
		return
	}
	d.CutChild(y, x) // x's subtree holds b
	d.RerootSubtree(x, b)
	d.AttachExisting(a, b)
}
