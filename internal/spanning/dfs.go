package spanning

import "mdegst/internal/sim"

// Token depth-first-search spanning tree: a single token performs the
// traversal, so the protocol is sequential and its tree is independent of
// message delays — handy as a deterministic substrate on any engine.
//
// Messages: Discover carries the token to an unvisited candidate; Return
// hands it back, reporting whether the candidate joined as a child. At most
// two messages cross each edge in each direction: O(m) messages, O(m) time.

// dfsReturn is the typed view of the token-return record.
type dfsReturn struct{ accepted bool }

// DFSNode is one node of the token-DFS protocol.
type DFSNode struct {
	id       sim.NodeID
	root     bool
	visited  bool
	finished bool
	parent   sim.NodeID
	children []sim.NodeID
	next     int // index into Neighbors of the next candidate to try
}

// NewDFSFactory returns a factory for the token DFS rooted at root.
func NewDFSFactory(root sim.NodeID) sim.Factory {
	return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		return &DFSNode{id: id, root: id == root}
	}
}

// Init gives the root the token.
func (n *DFSNode) Init(ctx sim.Context) {
	if !n.root {
		return
	}
	n.visited = true
	n.advance(ctx)
}

// Recv handles token arrival and return, decoding the return record's
// accepted flag at the boundary.
func (n *DFSNode) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	switch m.Op {
	case opDFSDiscover:
		if n.visited {
			sim.Send(ctx, from, sim.Msg(opDFSReturn, sim.B2W(false)))
			return
		}
		n.visited = true
		n.parent = from
		n.advance(ctx)
	case opDFSReturn:
		msg := dfsReturn{accepted: m.W[0] != 0}
		if msg.accepted {
			n.children = insertID(n.children, from)
		}
		n.advance(ctx)
	case opStDone:
		n.finish(ctx)
	}
}

// advance sends the token to the next untried neighbour, or returns it to
// the parent when this node's neighbourhood is exhausted.
func (n *DFSNode) advance(ctx sim.Context) {
	neighbors := ctx.Neighbors()
	for n.next < len(neighbors) {
		w := neighbors[n.next]
		n.next++
		if !n.root && w == n.parent {
			continue
		}
		sim.Send(ctx, w, sim.Msg(opDFSDiscover))
		return
	}
	if n.root {
		n.finish(ctx)
		return
	}
	sim.Send(ctx, n.parent, sim.Msg(opDFSReturn, sim.B2W(true)))
}

func (n *DFSNode) finish(ctx sim.Context) {
	n.finished = true
	for _, c := range n.children {
		sim.Send(ctx, c, sim.Msg(opStDone))
	}
}

// TreeInfo implements TreeNode.
func (n *DFSNode) TreeInfo() (sim.NodeID, []sim.NodeID, bool) {
	return n.parent, n.children, n.root
}

// Finished implements TreeNode.
func (n *DFSNode) Finished() bool { return n.finished }
