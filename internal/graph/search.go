package graph

import "sort"

// BFSOrder returns the nodes reachable from src in breadth-first order,
// scanning neighbours in ascending ID order.
func (g *Graph) BFSOrder(src NodeID) []NodeID {
	if !g.HasNode(src) {
		return nil
	}
	seen := map[NodeID]bool{src: true}
	order := []NodeID{src}
	for head := 0; head < len(order); head++ {
		for _, w := range g.Neighbors(order[head]) {
			if !seen[w] {
				seen[w] = true
				order = append(order, w)
			}
		}
	}
	return order
}

// IsConnected reports whether g is connected. The empty graph is not
// connected; a single node is.
func (g *Graph) IsConnected() bool {
	if g.N() == 0 {
		return false
	}
	return len(g.BFSOrder(g.Nodes()[0])) == g.N()
}

// Components returns the connected components of g, each sorted ascending,
// ordered by their smallest node.
func (g *Graph) Components() [][]NodeID {
	var comps [][]NodeID
	seen := make(map[NodeID]bool, g.N())
	for _, v := range g.Nodes() {
		if seen[v] {
			continue
		}
		comp := g.BFSOrder(v)
		for _, w := range comp {
			seen[w] = true
		}
		sortNodeIDs(comp)
		comps = append(comps, comp)
	}
	return comps
}

// Eccentricity returns the maximum BFS distance from src to any reachable
// node.
func (g *Graph) Eccentricity(src NodeID) int {
	dist := map[NodeID]int{src: 0}
	queue := []NodeID{src}
	max := 0
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[u] + 1
				if dist[w] > max {
					max = dist[w]
				}
				queue = append(queue, w)
			}
		}
	}
	return max
}

// Diameter returns the largest eccentricity over all nodes. It costs
// O(n·(n+m)) and is intended for tests and experiment reporting.
func (g *Graph) Diameter() int {
	max := 0
	for _, v := range g.Nodes() {
		if e := g.Eccentricity(v); e > max {
			max = e
		}
	}
	return max
}

func sortNodeIDs(ns []NodeID) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
}
