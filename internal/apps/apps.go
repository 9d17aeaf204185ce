// Package apps contains the tree applications that motivate the paper:
// broadcast and convergecast over a spanning tree. The paper's introduction
// argues that a high-degree tree node "might cause an undesirable
// communication load in that node"; these protocols make that load
// measurable on the simulator — the per-node send counts of a broadcast
// over tree T are exactly the degrees the improvement algorithm minimises.
package apps

import (
	"fmt"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/tree"
)

// The package's wire schema. payload is the broadcast message (one word
// models the payload chunk, plus the kind tag); ack is the convergecast
// reply carrying an aggregated value. The synchronizer records (sync.go)
// share the schema.
var wire = sim.Register("apps",
	sim.OpSpec{Kind: "app.payload", MinPayload: 1, MaxPayload: 1},
	sim.OpSpec{Kind: "app.ack", MinPayload: 1, MaxPayload: 1},
	sim.OpSpec{Kind: "sync.alg", MinPayload: 2, MaxPayload: 2, Rounded: true},
	sim.OpSpec{Kind: "sync.ack", MinPayload: 1, MaxPayload: 1, Rounded: true},
	sim.OpSpec{Kind: "sync.safe", MinPayload: 3, MaxPayload: 3, Rounded: true},
	sim.OpSpec{Kind: "sync.pulse", MinPayload: 1, MaxPayload: 1, Rounded: true},
	sim.OpSpec{Kind: "sync.halt", MinPayload: 1, MaxPayload: 1},
)

var (
	opPayload   = wire.Op(0)
	opAck       = wire.Op(1)
	opSyncAlg   = wire.Op(2)
	opSyncAck   = wire.Op(3)
	opSyncSafe  = wire.Op(4)
	opSyncPulse = wire.Op(5)
	opSyncHalt  = wire.Op(6)
)

// BroadcastNode floods a payload from the tree root down to every node and,
// when Ack is set, convergecasts a sum of the per-node Value back up.
type BroadcastNode struct {
	id       sim.NodeID
	root     bool
	parent   sim.NodeID
	children []sim.NodeID
	withAck  bool

	// Value is this node's contribution to the convergecast sum.
	Value int64

	received bool
	hops     int
	pending  int
	sum      int64
	done     bool
}

// Config describes one broadcast run.
type Config struct {
	// Tree is the spanning tree to broadcast over, in the dense form over
	// the snapshot's index.
	Tree *tree.Dense
	// Ack adds the convergecast reply wave (sum of Values).
	Ack bool
	// Value assigns per-node contributions; nil means every node counts 1,
	// so the root's final sum is n.
	Value func(id sim.NodeID) int64
}

// NewFactory builds the protocol factory for the broadcast.
func NewFactory(cfg Config) sim.Factory {
	return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		n := &BroadcastNode{id: id, withAck: cfg.Ack, Value: 1}
		n.root, n.parent, n.children = treeLinks(cfg.Tree, id)
		if cfg.Value != nil {
			n.Value = cfg.Value(id)
		}
		return n
	}
}

// treeLinks returns node id's place in t: whether it is the root, its
// parent (meaningless at the root) and its children, ascending.
func treeLinks(t *tree.Dense, id sim.NodeID) (root bool, parent sim.NodeID, children []sim.NodeID) {
	idx := t.Index()
	i := idx.MustOf(id)
	for _, c := range t.Children(i) {
		children = append(children, idx.ID(c))
	}
	if i == t.Root() {
		return true, 0, children
	}
	return false, idx.ID(t.Parent(i)), children
}

// Init starts the flood at the root.
func (n *BroadcastNode) Init(ctx sim.Context) {
	if !n.root {
		return
	}
	n.received = true
	n.pending = len(n.children)
	n.sum = n.Value
	for _, c := range n.children {
		sim.Send(ctx, c, sim.Msg(opPayload, 1))
	}
	if n.pending == 0 {
		n.done = true
	}
}

// Recv forwards the payload down and aggregates acks up; the single
// payload word decodes inline.
func (n *BroadcastNode) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	switch m.Op {
	case opPayload:
		if n.received {
			panic(fmt.Sprintf("apps: node %d received a second payload", n.id))
		}
		hop := int(m.W[0])
		n.received = true
		n.hops = hop
		n.pending = len(n.children)
		n.sum = n.Value
		for _, c := range n.children {
			sim.Send(ctx, c, sim.Msg(opPayload, int64(hop+1)))
		}
		if n.pending == 0 {
			n.finish(ctx)
		}
	case opAck:
		n.sum += m.W[0]
		n.pending--
		if n.pending == 0 {
			n.finish(ctx)
		}
	}
}

func (n *BroadcastNode) finish(ctx sim.Context) {
	n.done = true
	if !n.withAck || n.root {
		return
	}
	sim.Send(ctx, n.parent, sim.Msg(opAck, n.sum))
}

// Received reports whether the payload reached this node.
func (n *BroadcastNode) Received() bool { return n.received }

// Hops returns the tree depth at which the payload arrived.
func (n *BroadcastNode) Hops() int { return n.hops }

// Sum returns the aggregated value (meaningful at the root with Ack).
func (n *BroadcastNode) Sum() int64 { return n.sum }

// Result summarises one broadcast run.
type Result struct {
	// Delivered counts nodes the payload reached (must be n).
	Delivered int
	// MaxLoad is the largest per-node send count — the hot-spot measure;
	// for a plain broadcast it equals the root-adjusted maximum tree
	// degree, which is what the MDegST algorithm minimises.
	MaxLoad int64
	// Depth is the maximum hop count (the broadcast latency in unit
	// delays).
	Depth int
	// Sum is the convergecast result at the root (Ack runs only).
	Sum int64
	// Report is the raw accounting.
	Report *sim.Report
}

// Run broadcasts over cfg.Tree on the engine over the snapshot and gathers
// the result.
func Run(eng sim.Engine, c *graph.CSR, cfg Config) (*Result, error) {
	if err := cfg.Tree.Validate(c); err != nil {
		return nil, fmt.Errorf("apps: tree invalid: %w", err)
	}
	protos, rep, err := eng.Run(c, NewFactory(cfg))
	if err != nil {
		return nil, err
	}
	res := &Result{Report: rep, MaxLoad: rep.MaxSentByNode()}
	for i, p := range protos {
		id := c.Index().ID(int32(i))
		b, ok := p.(*BroadcastNode)
		if !ok {
			return nil, fmt.Errorf("apps: node %d runs %T", id, p)
		}
		if b.Received() {
			res.Delivered++
		}
		if b.Hops() > res.Depth {
			res.Depth = b.Hops()
		}
		if int32(i) == cfg.Tree.Root() {
			res.Sum = b.Sum()
		}
	}
	return res, nil
}
