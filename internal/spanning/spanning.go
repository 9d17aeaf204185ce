// Package spanning builds the initial rooted spanning trees the paper's
// improvement algorithm starts from ("we suppose a Spanning Tree already
// constructed ... For constructing such a tree, many different distributed
// algorithms exist").
//
// Distributed protocols (run on an internal/sim engine, all terminating by
// process, i.e. every node learns that construction finished):
//
//   - Flood: flooding with echo termination from a designated root; under
//     unit delays it yields a BFS tree, under asynchrony an arbitrary tree.
//   - DFS: classic token depth-first traversal.
//   - GHS: the Gallager–Humblet–Spira minimum-weight spanning tree protocol
//     with lexicographic edge identities as unique weights.
//   - Election: echo-wave extinction; elects the minimum identity and keeps
//     the winning wave's tree, needing no designated root.
//
// Sequential builders (harness helpers for experiments, not protocols):
// BFSTree, DFSTree, StarTree (adversarially high degree), RandomST (Wilson's
// uniform spanning tree).
package spanning

import (
	"fmt"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/tree"
)

// TreeNode is implemented by every spanning-tree protocol node so the final
// tree can be read back after the run.
type TreeNode interface {
	// TreeInfo returns this node's view of the finished tree.
	TreeInfo() (parent sim.NodeID, children []sim.NodeID, isRoot bool)
	// Finished reports whether the node knows the construction terminated
	// (termination by process, required by the paper's startup step).
	Finished() bool
}

// Extract reads the tree out of the final protocol states (protos[i]
// belongs to c.Index().ID(i), the sim.Engine result form) and validates it
// as a spanning tree of the snapshot: the parent table goes straight into
// tree.FromParentDense, which proves it a single tree, and every parent
// link is checked to be a real edge against the CSR.
func Extract(c *graph.CSR, protos []sim.Protocol) (*tree.Dense, error) {
	idx := c.Index()
	if len(protos) != c.N() {
		return nil, fmt.Errorf("spanning: %d protocol states for %d nodes", len(protos), c.N())
	}
	parent := make([]int32, len(protos))
	root := int32(-1)
	roots := 0
	for i, p := range protos {
		tn, ok := p.(TreeNode)
		if !ok {
			return nil, fmt.Errorf("spanning: node %d protocol %T does not expose a tree", idx.ID(int32(i)), p)
		}
		if !tn.Finished() {
			return nil, fmt.Errorf("spanning: node %d did not learn termination", idx.ID(int32(i)))
		}
		par, _, isRoot := tn.TreeInfo()
		if isRoot {
			root = int32(i)
			roots++
			parent[i] = tree.NoParent
			continue
		}
		pi, ok := idx.Of(par)
		if !ok {
			return nil, fmt.Errorf("spanning: node %d reports parent %d, not in the snapshot", idx.ID(int32(i)), par)
		}
		parent[i] = pi
	}
	if roots != 1 {
		return nil, fmt.Errorf("spanning: %d roots, want exactly 1", roots)
	}
	d, err := tree.FromParentDense(idx, root, parent)
	if err != nil {
		return nil, err
	}
	for i, p := range parent {
		if p != tree.NoParent && !c.HasEdge(int32(i), p) {
			return nil, fmt.Errorf("spanning: tree edge (%d,%d) not in graph", idx.ID(int32(i)), idx.ID(p))
		}
	}
	return d, nil
}

// Build runs a spanning-tree protocol on the engine over the snapshot and
// extracts the tree in its dense working form.
func Build(eng sim.Engine, c *graph.CSR, f sim.Factory) (*tree.Dense, *sim.Report, error) {
	protos, rep, err := eng.Run(c, f)
	if err != nil {
		return nil, nil, err
	}
	d, err := Extract(c, protos)
	if err != nil {
		return nil, nil, err
	}
	return d, rep, nil
}

func removeID(ns []sim.NodeID, v sim.NodeID) []sim.NodeID {
	out := make([]sim.NodeID, 0, len(ns))
	for _, n := range ns {
		if n != v {
			out = append(out, n)
		}
	}
	return out
}

func insertID(ns []sim.NodeID, v sim.NodeID) []sim.NodeID {
	i := 0
	for i < len(ns) && ns[i] < v {
		i++
	}
	ns = append(ns, 0)
	copy(ns[i+1:], ns[i:])
	ns[i] = v
	return ns
}
