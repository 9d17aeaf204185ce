package spanning

import (
	"fmt"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// GHS is the Gallager–Humblet–Spira distributed minimum-weight spanning
// tree protocol (the paper's reference [4]), used here as a fully
// distributed initial-tree substrate. Edge weights are the lexicographic
// pair (min endpoint, max endpoint), which are distinct as GHS requires, so
// the result is the unique MST of those synthetic weights — an "arbitrary"
// but deterministic spanning tree.
//
// The implementation follows the original pseudocode: fragments with
// levels, Connect/Initiate merging and absorbing, Test/Accept/Reject
// minimum-outgoing-edge search, Report convergecast and Change-root. The
// original's "place message on end of queue" re-queueing is realised with a
// per-node deferred list retried after every state change. After the core
// detects completion, the lower-identity core node roots the tree and
// broadcasts Done over branch edges (termination by process).
//
// Like the original, the protocol assumes FIFO communication channels (the
// standard model, and the one the MDegST paper uses); run it on engines
// with FIFO delivery.

// ghsWeight is a unique edge weight: the ordered endpoint pair.
type ghsWeight struct{ a, b sim.NodeID }

var ghsInfinity = ghsWeight{a: 1<<62 - 1, b: 1<<62 - 1}

func ghsEdgeWeight(u, v sim.NodeID) ghsWeight {
	e := graph.NewEdge(u, v)
	return ghsWeight{a: e.U, b: e.V}
}

func (w ghsWeight) less(o ghsWeight) bool {
	if w.a != o.a {
		return w.a < o.a
	}
	return w.b < o.b
}

func (w ghsWeight) String() string { return fmt.Sprintf("w(%d,%d)", w.a, w.b) }

type ghsEdgeState uint8

const (
	ghsBasic ghsEdgeState = iota
	ghsBranch
	ghsRejected
)

type ghsNodeState uint8

const (
	ghsFind ghsNodeState = iota
	ghsFound
)

// Typed views of the GHS wire records, decoded at the protocol boundary.
// Word accounting (kind tag + payload): connect 2, initiate 5, test 4,
// report 3, the rest 1.
type ghsConnect struct{ level int }
type ghsInitiate struct {
	level int
	frag  ghsWeight
	state ghsNodeState
}
type ghsTest struct {
	level int
	frag  ghsWeight
}
type ghsReport struct{ best ghsWeight }

func newGHSConnect(level int) sim.WireMsg { return sim.Msg(opGHSConnect, int64(level)) }

func newGHSInitiate(level int, frag ghsWeight, state ghsNodeState) sim.WireMsg {
	m := sim.WireMsg{Op: opGHSInitiate, Nw: 4}
	m.W[0], m.W[1], m.W[2], m.W[3] = int64(level), int64(frag.a), int64(frag.b), int64(state)
	return m
}

func newGHSTest(level int, frag ghsWeight) sim.WireMsg {
	m := sim.WireMsg{Op: opGHSTest, Nw: 3}
	m.W[0], m.W[1], m.W[2] = int64(level), int64(frag.a), int64(frag.b)
	return m
}

func newGHSReport(best ghsWeight) sim.WireMsg {
	m := sim.WireMsg{Op: opGHSReport, Nw: 2}
	m.W[0], m.W[1] = int64(best.a), int64(best.b)
	return m
}

type ghsDeferred struct {
	from sim.NodeID
	msg  sim.WireMsg
}

// GHSNode is one node of the GHS protocol.
type GHSNode struct {
	id        sim.NodeID
	level     int
	frag      ghsWeight
	state     ghsNodeState
	edges     map[sim.NodeID]ghsEdgeState
	bestEdge  sim.NodeID
	bestWt    ghsWeight
	hasBest   bool
	testEdge  sim.NodeID
	testing   bool
	inBranch  sim.NodeID
	hasCore   bool // inBranch is valid
	findCount int
	halted    bool
	finished  bool
	isRoot    bool
	parent    sim.NodeID
	hasParent bool
	deferred  []ghsDeferred
}

// NewGHSFactory returns a factory for the GHS protocol.
func NewGHSFactory() sim.Factory {
	return func(id sim.NodeID, neighbors []sim.NodeID) sim.Protocol {
		n := &GHSNode{id: id, edges: make(map[sim.NodeID]ghsEdgeState, len(neighbors))}
		for _, w := range neighbors {
			n.edges[w] = ghsBasic
		}
		return n
	}
}

// Init wakes the node: its minimum-weight edge becomes a branch and a
// level-0 Connect crosses it.
func (n *GHSNode) Init(ctx sim.Context) {
	neighbors := ctx.Neighbors()
	if len(neighbors) == 0 {
		// Single-node network: already a (trivial) spanning tree.
		n.halted = true
		n.finished = true
		n.isRoot = true
		return
	}
	m := neighbors[0]
	best := ghsEdgeWeight(n.id, m)
	for _, w := range neighbors[1:] {
		if wt := ghsEdgeWeight(n.id, w); wt.less(best) {
			best, m = wt, w
		}
	}
	n.edges[m] = ghsBranch
	n.level = 0
	n.state = ghsFound
	n.bestWt = ghsInfinity
	sim.Send(ctx, m, newGHSConnect(0))
}

// Recv processes one message, then retries deferred messages until no more
// can make progress.
func (n *GHSNode) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	if !n.process(ctx, from, *m) {
		n.deferred = append(n.deferred, ghsDeferred{from: from, msg: *m})
		return
	}
	n.retryDeferred(ctx)
}

func (n *GHSNode) retryDeferred(ctx sim.Context) {
	for progress := true; progress; {
		progress = false
		for i := 0; i < len(n.deferred); i++ {
			d := n.deferred[i]
			if n.process(ctx, d.from, d.msg) {
				n.deferred = append(n.deferred[:i], n.deferred[i+1:]...)
				progress = true
				i--
			}
		}
	}
}

// process handles one message; it returns false when the message must be
// deferred per the GHS pseudocode. Wire records decode to their typed
// views here, at the protocol boundary.
func (n *GHSNode) process(ctx sim.Context, from sim.NodeID, m sim.WireMsg) bool {
	switch m.Op {
	case opGHSConnect:
		return n.onConnect(ctx, from, ghsConnect{level: int(m.W[0])})
	case opGHSInitiate:
		n.onInitiate(ctx, from, ghsInitiate{
			level: int(m.W[0]),
			frag:  ghsWeight{a: sim.NodeID(m.W[1]), b: sim.NodeID(m.W[2])},
			state: ghsNodeState(m.W[3]),
		})
		return true
	case opGHSTest:
		return n.onTest(ctx, from, ghsTest{
			level: int(m.W[0]),
			frag:  ghsWeight{a: sim.NodeID(m.W[1]), b: sim.NodeID(m.W[2])},
		})
	case opGHSAccept:
		n.onAccept(ctx, from)
		return true
	case opGHSReject:
		n.onReject(ctx, from)
		return true
	case opGHSReport:
		return n.onReport(ctx, from, ghsReport{best: ghsWeight{a: sim.NodeID(m.W[0]), b: sim.NodeID(m.W[1])}})
	case opGHSChangeRt:
		n.changeRoot(ctx)
		return true
	case opGHSDone:
		n.onDone(ctx, from)
		return true
	default:
		panic(fmt.Sprintf("ghs: unexpected message %s", m.Kind()))
	}
}

func (n *GHSNode) onConnect(ctx sim.Context, from sim.NodeID, msg ghsConnect) bool {
	switch {
	case msg.level < n.level:
		// Absorb the lower-level fragment.
		n.edges[from] = ghsBranch
		sim.Send(ctx, from, newGHSInitiate(n.level, n.frag, n.state))
		if n.state == ghsFind {
			n.findCount++
		}
		return true
	case n.edges[from] == ghsBasic:
		return false // defer: same/higher level over an untested edge
	default:
		// Merge: this edge becomes the new core at level+1.
		sim.Send(ctx, from, newGHSInitiate(n.level+1, ghsEdgeWeight(n.id, from), ghsFind))
		return true
	}
}

func (n *GHSNode) onInitiate(ctx sim.Context, from sim.NodeID, msg ghsInitiate) {
	n.level = msg.level
	n.frag = msg.frag
	n.state = msg.state
	n.inBranch = from
	n.hasCore = true
	n.hasBest = false
	n.bestWt = ghsInfinity
	for _, w := range ctx.Neighbors() {
		if w == from || n.edges[w] != ghsBranch {
			continue
		}
		sim.Send(ctx, w, newGHSInitiate(msg.level, msg.frag, msg.state))
		if msg.state == ghsFind {
			n.findCount++
		}
	}
	if msg.state == ghsFind {
		n.test(ctx)
	}
}

// test probes the minimum-weight basic edge, or reports if none remain.
func (n *GHSNode) test(ctx sim.Context) {
	var best sim.NodeID
	bestWt := ghsInfinity
	found := false
	for _, w := range ctx.Neighbors() {
		if n.edges[w] != ghsBasic {
			continue
		}
		if wt := ghsEdgeWeight(n.id, w); wt.less(bestWt) {
			bestWt, best, found = wt, w, true
		}
	}
	if !found {
		n.testing = false
		n.report(ctx)
		return
	}
	n.testing = true
	n.testEdge = best
	sim.Send(ctx, best, newGHSTest(n.level, n.frag))
}

func (n *GHSNode) onTest(ctx sim.Context, from sim.NodeID, msg ghsTest) bool {
	if msg.level > n.level {
		return false // defer until this node catches up
	}
	if msg.frag != n.frag {
		sim.Send(ctx, from, sim.Msg(opGHSAccept))
		return true
	}
	if n.edges[from] == ghsBasic {
		n.edges[from] = ghsRejected
	}
	if !(n.testing && n.testEdge == from) {
		sim.Send(ctx, from, sim.Msg(opGHSReject))
	} else {
		n.test(ctx)
	}
	return true
}

func (n *GHSNode) onAccept(ctx sim.Context, from sim.NodeID) {
	n.testing = false
	if wt := ghsEdgeWeight(n.id, from); wt.less(n.bestWt) {
		n.bestWt = wt
		n.bestEdge = from
		n.hasBest = true
	}
	n.report(ctx)
}

func (n *GHSNode) onReject(ctx sim.Context, from sim.NodeID) {
	if n.edges[from] == ghsBasic {
		n.edges[from] = ghsRejected
	}
	n.test(ctx)
}

// report converges the minimum outgoing edge toward the core.
func (n *GHSNode) report(ctx sim.Context) {
	if n.findCount == 0 && !n.testing {
		n.state = ghsFound
		sim.Send(ctx, n.inBranch, newGHSReport(n.bestWt))
	}
}

func (n *GHSNode) onReport(ctx sim.Context, from sim.NodeID, msg ghsReport) bool {
	if !n.hasCore || from != n.inBranch {
		n.findCount--
		if msg.best.less(n.bestWt) {
			n.bestWt = msg.best
			n.bestEdge = from
			n.hasBest = true
		}
		n.report(ctx)
		return true
	}
	// Report over the core edge: the two fragment halves compare results.
	if n.state == ghsFind {
		return false // defer until this half finished its own search
	}
	switch {
	case n.bestWt.less(msg.best):
		n.changeRoot(ctx)
	case msg.best == ghsInfinity && n.bestWt == ghsInfinity:
		n.halt(ctx, from)
	}
	return true
}

// changeRoot forwards toward the fragment's minimum outgoing edge and sends
// Connect across it.
func (n *GHSNode) changeRoot(ctx sim.Context) {
	if n.edges[n.bestEdge] == ghsBranch {
		sim.Send(ctx, n.bestEdge, sim.Msg(opGHSChangeRt))
		return
	}
	sim.Send(ctx, n.bestEdge, newGHSConnect(n.level))
	n.edges[n.bestEdge] = ghsBranch
}

// halt fires on both core nodes when the MST is complete; the lower-identity
// core node becomes the root and broadcasts Done.
func (n *GHSNode) halt(ctx sim.Context, otherCore sim.NodeID) {
	n.halted = true
	if n.id < otherCore {
		n.isRoot = true
		n.finished = true
		for _, w := range ctx.Neighbors() {
			if n.edges[w] == ghsBranch {
				sim.Send(ctx, w, sim.Msg(opGHSDone))
			}
		}
	}
}

func (n *GHSNode) onDone(ctx sim.Context, from sim.NodeID) {
	if n.finished {
		return
	}
	n.finished = true
	n.parent = from
	n.hasParent = true
	for _, w := range ctx.Neighbors() {
		if w != from && n.edges[w] == ghsBranch {
			sim.Send(ctx, w, sim.Msg(opGHSDone))
		}
	}
}

// TreeInfo implements TreeNode: branch edges minus the parent are children.
func (n *GHSNode) TreeInfo() (sim.NodeID, []sim.NodeID, bool) {
	var children []sim.NodeID
	for w, st := range n.edges {
		if st == ghsBranch && (!n.hasParent || w != n.parent) {
			children = insertID(children, w)
		}
	}
	return n.parent, children, !n.hasParent
}

// Finished implements TreeNode.
func (n *GHSNode) Finished() bool { return n.finished }
