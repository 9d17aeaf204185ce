package spanning

import (
	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// Flooding spanning tree with echo termination (Chang's echo algorithm):
// the designated root floods Explore; a node adopts the first Explore's
// sender as parent and re-floods; crossing Explores resolve non-tree edges;
// Echo converges termination back to the root, which then broadcasts Done
// down the tree so every node knows construction finished.
//
// Message complexity: at most 2 per edge (Explore/Explore or Explore/Echo)
// plus n-1 Done, i.e. O(m). Time O(diameter). Under unit delays the result
// is a BFS tree; under asynchrony an arbitrary spanning tree.

// FloodNode is one node of the flooding protocol.
type FloodNode struct {
	id       sim.NodeID
	root     bool
	started  bool
	finished bool
	parent   sim.NodeID
	children []sim.NodeID
	pending  int // unresolved neighbours (tree responses or crossing floods)
}

// NewFloodFactory returns a factory for the flooding protocol rooted at
// root, bound to the snapshot the engine runs: all n node states live in
// one slab and the children lists are capacity-bounded sub-slices of one
// arena laid out by node degree — children are always a subset of
// neighbours, so insertID never grows a list out of the arena and a whole
// run performs zero per-node allocations. The factory resets a node's
// state every time it is asked for it, so one factory serves any number of
// *sequential* runs (the benchmark steady state); it owns a single slab,
// so concurrent runs must each get their own factory.
func NewFloodFactory(c *graph.CSR, root sim.NodeID) sim.Factory {
	idx := c.Index()
	nodes := make([]FloodNode, c.N())
	arena := make([]sim.NodeID, c.HalfEdges())
	return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		di := idx.MustOf(id)
		lo, hi := c.HalfEdge(di, 0), c.HalfEdge(di, c.Degree(di))
		n := &nodes[di]
		*n = FloodNode{id: id, root: id == root, children: arena[lo:lo:hi]}
		return n
	}
}

// Init starts the flood at the root; other nodes wait for an Explore.
func (n *FloodNode) Init(ctx sim.Context) {
	if !n.root {
		return
	}
	n.started = true
	n.pending = len(ctx.Neighbors())
	if n.pending == 0 {
		n.finished = true // single-node network
		return
	}
	for _, w := range ctx.Neighbors() {
		ctx.Send(w, sim.Msg(opFloodExplore))
	}
}

// Recv drives the explore/echo state machine; the wire records carry no
// payload, so the opcode is the whole decode.
func (n *FloodNode) Recv(ctx sim.Context, from sim.NodeID, m sim.WireMsg) {
	switch m.Op {
	case opFloodExplore:
		if !n.started {
			n.started = true
			n.parent = from
			n.pending = len(ctx.Neighbors()) - 1
			if n.pending == 0 {
				ctx.Send(n.parent, sim.Msg(opFloodEcho))
				return
			}
			for _, w := range ctx.Neighbors() {
				if w != from {
					ctx.Send(w, sim.Msg(opFloodExplore))
				}
			}
			return
		}
		// Crossing explore on a non-tree edge: both sides resolve it.
		n.resolve(ctx)
	case opFloodEcho:
		n.children = insertID(n.children, from)
		n.resolve(ctx)
	case opStDone:
		n.finish(ctx)
	}
}

func (n *FloodNode) resolve(ctx sim.Context) {
	n.pending--
	if n.pending > 0 {
		return
	}
	if n.root {
		n.finish(ctx)
		return
	}
	ctx.Send(n.parent, sim.Msg(opFloodEcho))
}

func (n *FloodNode) finish(ctx sim.Context) {
	n.finished = true
	for _, c := range n.children {
		ctx.Send(c, sim.Msg(opStDone))
	}
}

// TreeInfo implements TreeNode.
func (n *FloodNode) TreeInfo() (sim.NodeID, []sim.NodeID, bool) {
	return n.parent, n.children, n.root
}

// Finished implements TreeNode.
func (n *FloodNode) Finished() bool { return n.finished }

// EncodeState implements sim.StateCodec: flood supports barrier
// checkpoint/resume. The designated-root flag is factory state and not
// encoded.
func (n *FloodNode) EncodeState(e *sim.StateEncoder) {
	e.Bool(n.started)
	e.Bool(n.finished)
	e.ID(n.parent)
	e.IDs(n.children)
	e.Int(int64(n.pending))
}

// DecodeState implements sim.StateCodec.
func (n *FloodNode) DecodeState(d *sim.StateDecoder) error {
	n.started = d.Bool()
	n.finished = d.Bool()
	n.parent = d.ID()
	n.children = d.IDs()
	n.pending = int(d.Int())
	return d.Err()
}

var _ sim.StateCodec = (*FloodNode)(nil)
