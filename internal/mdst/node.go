package mdst

import (
	"fmt"

	"mdegst/internal/sim"
	"mdegst/internal/tree"
)

// Mode selects how many maximum-degree nodes act per round.
type Mode int

const (
	// Single is the paper's base algorithm (§3.1–3.2.5): each round the
	// root moves to the minimum-identity maximum-degree node, which alone
	// cuts its children and applies at most one exchange. Nodes that find
	// no improvement are marked exhausted until the next exchange anywhere
	// in the tree; the algorithm stops when every maximum-degree node is
	// exhausted.
	Single Mode = iota
	// Multi adds §3.2.6: every maximum-degree node reached by the wave
	// behaves like a root, cutting its own children and applying an
	// exchange between two of its own fragments concurrently. The round
	// with no exchange anywhere terminates the algorithm. Because owners
	// only use edges between their own fragments (the verifiably safe
	// reading of the paper; see DESIGN.md deviation 4), Multi can stop at
	// a weaker optimum than Single.
	Multi
	// Hybrid runs Multi rounds until they stall, then switches to Single
	// rounds until full local optimality: Multi's concurrent progress with
	// Single's terminal guarantee.
	Hybrid
)

func (m Mode) String() string {
	switch m {
	case Single:
		return "single"
	case Multi:
		return "multi"
	case Hybrid:
		return "hybrid"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// initialPhase returns the phase the first round runs in.
func (m Mode) initialPhase() Mode {
	if m == Single {
		return Single
	}
	return Multi
}

// degAgg is the SearchDegree aggregate: maximum tree degree seen and the
// minimum identity of an eligible node attaining it.
type degAgg struct {
	k    int
	cand sim.NodeID
}

func mergeAgg(a, b degAgg) degAgg {
	switch {
	case a.k > b.k:
		return a
	case b.k > a.k:
		return b
	case a.cand == noCand:
		return degAgg{k: a.k, cand: b.cand}
	case b.cand == noCand || a.cand < b.cand:
		return a
	default:
		return b
	}
}

type deferredMsg struct {
	from sim.NodeID
	msg  sim.WireMsg
}

// Node is one processor of the distributed MDegST improvement protocol.
// Its persistent state is the local tree view (parent, children) plus the
// exhausted flag; everything else is per-round.
type Node struct {
	id     sim.NodeID
	mode   Mode
	phase  Mode // Single or Multi; Hybrid switches Multi -> Single
	target int  // stop once the maximum degree is <= target (0: improve fully)

	// Tree view.
	parent    sim.NodeID
	hasParent bool
	children  []sim.NodeID

	// Cross-round state.
	round      int
	exhausted  bool
	terminated bool
	swaps      int // exchanges this node applied as an owner

	// SearchDegree state.
	searchPending int
	agg           degAgg
	via           sim.NodeID // neighbour (or self) that contributed agg
	kAll          int        // round's maximum degree, known after search/cut

	// Fragment-member state.
	fragKnown  bool
	frag       fragID
	bfsPending int
	hasReport  bool
	report     edgeReport
	reportVia  sim.NodeID // child (or self) whose subtree holds report
	improved   bool       // an exchange happened in this subtree (Multi)

	// Owner state (acting root or, in Multi mode, any degree-k node).
	isOwner      bool
	actingRoot   bool
	ownerPending int
	ownerHasBest bool
	ownerBest    edgeReport
	ownerArrival sim.NodeID // child whose subtree reported ownerBest
	ownerSwapped bool
	awaitingDone bool

	deferred []deferredMsg
}

// NewFactory returns a sim.Factory for the improvement protocol starting
// from the given initial rooted spanning tree: each node's view (parent,
// sorted children) is read from the dense tree's slices. A positive target
// stops the algorithm as soon as the maximum degree reaches it — the
// paper's "cannot exceed a given value k" variant; zero improves to local
// optimality.
func NewFactory(mode Mode, target int, initial *tree.Dense) sim.Factory {
	idx := initial.Index()
	return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		di := idx.MustOf(id)
		kids := initial.Children(di)
		n := &Node{
			id:       id,
			mode:     mode,
			phase:    mode.initialPhase(),
			target:   target,
			children: make([]sim.NodeID, len(kids)),
		}
		for k, ch := range kids {
			n.children[k] = idx.ID(ch)
		}
		if p := initial.Parent(di); p != tree.NoParent {
			n.parent = idx.ID(p)
			n.hasParent = true
		}
		return n
	}
}

// stopDegree is the maximum degree at which the algorithm halts: a chain
// (k=2) can never improve, and a caller-given target may stop earlier.
func (n *Node) stopDegree() int {
	if n.target > 2 {
		return n.target
	}
	return 2
}

// degree returns this node's current tree degree.
func (n *Node) degree() int {
	d := len(n.children)
	if n.hasParent {
		d++
	}
	return d
}

// Init starts round 1 at the initial root; all other nodes are event-driven.
func (n *Node) Init(ctx sim.Context) {
	if !n.hasParent {
		n.startRound(ctx, 1, false)
	}
}

// Recv dispatches one message, deferring those that arrive ahead of this
// node's round or before its fragment identity is known (the paper's
// "the answer has to be delayed until x learns its fragment identity").
// Messages are flat wire records: deferring one is a value copy, and a
// processed one simply goes out of scope.
//
// Every deferred message was rejected under the node's current deferral
// state (see deferState), so the list is replayed only when a processed
// message changed that state; otherwise each entry would be rejected
// again.
func (n *Node) Recv(ctx sim.Context, from sim.NodeID, m sim.WireMsg) {
	pending := len(n.deferred) > 0
	before := n.deferState()
	if !n.process(ctx, from, &m) {
		n.deferred = append(n.deferred, deferredMsg{from: from, msg: m})
		return
	}
	if pending && n.deferState() != before {
		n.retryDeferred(ctx)
	}
}

// deferState is everything process reads to decide whether to defer: the
// round, the fragment and owner flags and the tree parent (a BFS from the
// parent is never deferred), plus termination, after which any delivery
// is a protocol violation.
type deferState struct {
	round                                  int
	parent                                 sim.NodeID
	hasParent, fragKnown, isOwner, stopped bool
}

func (n *Node) deferState() deferState {
	return deferState{n.round, n.parent, n.hasParent, n.fragKnown, n.isOwner, n.terminated}
}

// retryDeferred replays the deferred list in arrival order, compacting
// the entries that stay deferred in place, and passes over it again only
// while a replayed message changed the deferral state.
func (n *Node) retryDeferred(ctx sim.Context) {
	for again := true; again; {
		again = false
		kept := n.deferred[:0]
		for i := range n.deferred {
			d := n.deferred[i]
			before := n.deferState()
			if !n.process(ctx, d.from, &d.msg) {
				kept = append(kept, d)
			} else if n.deferState() != before {
				again = true
			}
		}
		n.deferred = kept
	}
}

// process handles one message, returning false to defer it. The wire
// record decodes to its typed view here, at the protocol boundary; the
// handlers below work on the structs.
func (n *Node) process(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) bool {
	if n.terminated {
		panic(fmt.Sprintf("mdst: node %d received %s after termination", n.id, m.Kind()))
	}
	round := int(m.W[0]) // every mdst record is Rounded: word 0 is the round
	if round > n.round {
		if m.Op != opStart {
			return false // ahead of our round: wait for mStart (non-FIFO only)
		}
	}
	if round < n.round {
		panic(fmt.Sprintf("mdst: node %d in round %d received stale %s of round %d", n.id, n.round, m.Kind(), round))
	}
	switch m.Op {
	case opStart:
		n.onStart(ctx, from, decStart(m))
	case opDeg:
		n.onDeg(ctx, from, decDeg(m))
	case opMove:
		n.onMove(ctx, from, decMove(m))
	case opCut:
		n.onCut(ctx, from, decCut(m))
	case opBFS:
		return n.onBFS(ctx, from, decBFS(m))
	case opCousin:
		n.onCousin(ctx, from, decCousin(m))
	case opBFSBack:
		n.onBFSBack(ctx, from, decBFSBack(m))
	case opUpdate:
		n.onUpdate(ctx, from, decUpdate(m))
	case opChild:
		n.onChild(ctx, from, mChild{round: round})
	case opRoundDone:
		n.onRoundDone(ctx, from, mRoundDone{round: round})
	case opTerm:
		n.onTerm(ctx, mTerm{round: round})
	default:
		panic(fmt.Sprintf("mdst: unexpected message %s", m.Kind()))
	}
	return true
}

// resetRound clears all per-round state.
func (n *Node) resetRound() {
	n.searchPending = 0
	n.agg = degAgg{}
	n.via = n.id
	n.kAll = 0
	n.fragKnown = false
	n.frag = fragID{}
	n.bfsPending = 0
	n.hasReport = false
	n.report = edgeReport{}
	n.reportVia = n.id
	n.improved = false
	n.isOwner = false
	n.actingRoot = false
	n.ownerPending = 0
	n.ownerHasBest = false
	n.ownerBest = edgeReport{}
	n.ownerArrival = 0
	n.ownerSwapped = false
	n.awaitingDone = false
}

// ownContribution is this node's SearchDegree entry: its degree and, if
// eligible to act, its identity. Exhaustion only applies in Single phase;
// Multi rounds detect their own stall through the improvement flags.
func (n *Node) ownContribution() degAgg {
	cand := n.id
	if n.phase == Single && n.exhausted {
		cand = noCand
	}
	return degAgg{k: n.degree(), cand: cand}
}

// removeChild drops c from the children list.
func (n *Node) removeChild(c sim.NodeID) {
	for i, x := range n.children {
		if x == c {
			n.children = append(n.children[:i], n.children[i+1:]...)
			return
		}
	}
	panic(fmt.Sprintf("mdst: node %d has no child %d", n.id, c))
}

// addChild inserts c keeping the list sorted.
func (n *Node) addChild(c sim.NodeID) {
	i := 0
	for i < len(n.children) && n.children[i] < c {
		i++
	}
	n.children = append(n.children, 0)
	copy(n.children[i+1:], n.children[i:])
	n.children[i] = c
}

// TreeInfo exposes the final tree (spanning.TreeNode-compatible).
func (n *Node) TreeInfo() (sim.NodeID, []sim.NodeID, bool) {
	return n.parent, n.children, !n.hasParent
}

// Finished reports termination by process.
func (n *Node) Finished() bool { return n.terminated }

// Round returns the last round this node participated in.
func (n *Node) Round() int { return n.round }

// Swaps returns the number of exchanges this node applied as an owner.
func (n *Node) Swaps() int { return n.swaps }
