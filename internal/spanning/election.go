package spanning

import "mdegst/internal/sim"

// Election builds a spanning tree with no designated root: every node starts
// an echo wave tagged with its identity, larger-tagged waves are extinguished
// by smaller ones, and only the minimum-identity wave completes its echo.
// Its initiator becomes the leader/root and its wave tree is the spanning
// tree; a Done broadcast gives termination by process. Worst case O(n·m)
// messages, O(diameter) time — the classic extrema-finding flood.

// ElectionNode is one node of the extinction protocol.
type ElectionNode struct {
	id       sim.NodeID
	best     sim.NodeID // initiator of the wave currently joined
	parent   sim.NodeID // parent within that wave (self when own wave)
	children []sim.NodeID
	pending  int
	leader   bool
	finished bool
}

// NewElectionFactory returns a factory for the election protocol.
func NewElectionFactory() sim.Factory {
	return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		return &ElectionNode{id: id, best: id, parent: id}
	}
}

// Init launches this node's own wave.
func (n *ElectionNode) Init(ctx sim.Context) {
	n.pending = len(ctx.Neighbors())
	if n.pending == 0 {
		n.leader = true
		n.finished = true
		return
	}
	for _, w := range ctx.Neighbors() {
		sim.Send(ctx, w, sim.Msg(opElExplore, int64(n.id)))
	}
}

// Recv drives extinction: adopt strictly smaller waves, resolve equal ones,
// ignore larger ones (their senders will adopt ours instead).
func (n *ElectionNode) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	switch m.Op {
	case opElExplore:
		init := sim.NodeID(m.W[0])
		switch {
		case init < n.best:
			n.best = init
			n.parent = from
			n.children = nil
			n.pending = len(ctx.Neighbors()) - 1
			if n.pending == 0 {
				sim.Send(ctx, n.parent, sim.Msg(opElEcho, int64(n.best)))
				return
			}
			for _, w := range ctx.Neighbors() {
				if w != from {
					sim.Send(ctx, w, sim.Msg(opElExplore, int64(n.best)))
				}
			}
		case init == n.best:
			n.resolve(ctx)
		}
	case opElEcho:
		if sim.NodeID(m.W[0]) != n.best {
			return // echo of an extinguished wave
		}
		n.children = insertID(n.children, from)
		n.resolve(ctx)
	case opElDone:
		n.finish(ctx)
	}
}

func (n *ElectionNode) resolve(ctx sim.Context) {
	n.pending--
	if n.pending > 0 {
		return
	}
	if n.best == n.id {
		n.leader = true
		n.finish(ctx)
		return
	}
	sim.Send(ctx, n.parent, sim.Msg(opElEcho, int64(n.best)))
}

func (n *ElectionNode) finish(ctx sim.Context) {
	n.finished = true
	for _, c := range n.children {
		sim.Send(ctx, c, sim.Msg(opElDone))
	}
}

// Leader reports whether this node won the election.
func (n *ElectionNode) Leader() bool { return n.leader }

// TreeInfo implements TreeNode.
func (n *ElectionNode) TreeInfo() (sim.NodeID, []sim.NodeID, bool) {
	return n.parent, n.children, n.leader
}

// Finished implements TreeNode.
func (n *ElectionNode) Finished() bool { return n.finished }
