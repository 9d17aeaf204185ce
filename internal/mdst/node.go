package mdst

import (
	"fmt"
	"slices"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/tree"
)

// Mode selects how many maximum-degree nodes act per round.
type Mode int

const (
	// Single is the paper's base algorithm (§3.1–3.2.5): each round the
	// root moves to the minimum-identity maximum-degree node, which alone
	// cuts its children and applies at most one exchange. A node that finds
	// no improvement is marked exhausted; an exchange clears the flag only
	// where it can have created a usable edge: on its cycle and, when the
	// cut child c fell to degree k-2, between c and each non-tree
	// neighbour of c of degree at most k-2 (DESIGN.md deviation 1). Once
	// the nodes know their subtree sizes, each round's wave also sets the
	// flag of every other maximum-degree node exactly (deviation 7). The
	// algorithm stops when every maximum-degree node is exhausted.
	Single Mode = iota
	// Multi adds §3.2.6: every maximum-degree node reached by the wave
	// behaves like a root, cutting its own children and applying an
	// exchange concurrently, over an edge between two of its own fragments
	// or from one of them into its parent fragment; a contested endpoint
	// goes to the smallest proposing owner (DESIGN.md deviation 4). The
	// round with no exchange anywhere terminates the algorithm. Owners use
	// no other edges, so Multi can stop at a weaker optimum than Single.
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

// ParseMode inverts Mode.String.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{Single, Multi, Hybrid} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q", s)
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
// Its persistent state is the local tree view (parent, children, their
// subtree sizes) plus the exhausted flag; everything else is per-round.
type Node struct {
	// The deferral state (see deferState) leads, so that the loads of a
	// delivery's first checks share a cache line: Recv reads deferred,
	// process the round and the termination flag.
	deferred   []deferredMsg
	round      int
	parent     sim.NodeID
	hasParent  bool
	fragKnown  bool
	isOwner    bool
	terminated bool

	// The flags of each group lead the next one, so that they pack
	// together: every delivery reads the first few cache lines.

	// Cross-round state. The sizes describe the current tree once a
	// Single round's wave reported them; an exchange leaves one size
	// pending at each node of its path, which the next start's moved count
	// completes (DESIGN.md deviation 7).
	exhausted bool
	sized     bool // the last round was Single: sizes are exact
	known     bool // the published degrees are known (see belief)
	phase     Mode // Single or Multi; Hybrid switches Multi -> Single
	id        sim.NodeID
	mode      Mode
	target    int        // stop once the maximum degree is <= target (0: improve fully)
	swaps     int        // exchanges this node applied as an owner
	fixChild  sim.NodeID // child whose size is pending (noCand: none)
	fixBase   int        // its size is the next start's moved count plus fixBase

	// Tree view.
	children []sim.NodeID
	sizes    []int // subtree size of each child, parallel to children (see sized)

	// Published degrees (DESIGN.md deviation 8): pub never exceeds this
	// node's tree degree, and once known is set every neighbour in this
	// node's round believes it. belief holds each neighbour's pub,
	// parallel to the neighbour list; a Single round probes a non-tree
	// edge only when both ends publish at most k-2.
	belief []int

	// SearchDegree state (see search). A Single round's wave gathers it
	// for the next round, and the exchange's cycle updates it (DESIGN.md
	// deviation 9), so it outlives the next start.
	searchPending int
	agg           degAgg     // the subtree's aggregate, less part (and, in the wave, this node)
	via           sim.NodeID // neighbour (or self) that contributed agg
	part          degAgg     // in the wave: that of the child holding the best report
	kAll          int        // round's maximum degree, known after search/cut
	xBelow        bool       // this subtree holds a node of X (see mStart)

	// Fragment-member state.
	hasReport  bool
	improved   bool  // an exchange happened in this subtree (Multi)
	pub        int32 // this node's published degree (see belief)
	frag       fragID
	bfsPending int
	report     edgeReport
	reportVia  sim.NodeID // child (or self) whose subtree holds report
	label      int        // pre-order label (noLabel: the round has none)
	lo, hi     int        // least and greatest qualifying label seen below
	size       int        // subtree size counted so far: 1 + the children's answers

	// Owner state (acting root or, in Multi mode, any degree-k node).
	actingRoot   bool
	ownerHasBest bool
	ownerSwapped bool
	awaitingDone bool
	ownerPending int
	ownerBest    edgeReport
	ownerArrival sim.NodeID // child whose subtree reported ownerBest
	moved        int        // acting root: size of the subtree its exchange moved

	// grant is the Multi-round grant state; nil in a Single-mode run,
	// which never needs it (see NewFactory).
	*grant
}

// grant is a node's Multi-round grant state (DESIGN.md deviation 4). up
// names, by its root, the parent fragment of this member's owner, or of
// this owner: the fragment holding the owner's parent, noCand if there is
// none.
type grant struct {
	up         sim.NodeID
	claim      sim.NodeID   // endpoint: smallest owner claiming this node (noCand: none)
	relFrom    sim.NodeID   // the node that released this one
	relPending int          // releases sent and not yet acknowledged
	relTo      []sim.NodeID // children that reported a claimer below them
	halves     uint8        // records of a relayed cut pair received (see onCut)
	claimStep  uint8        // owner: where its claim stands (claimNone, ...)
}

// NewFactory returns a sim.Factory for the improvement protocol over c
// starting from the given initial rooted spanning tree of it: each node's
// view (parent, sorted children) is read from the dense tree's slices. A
// positive target stops the algorithm as soon as the maximum degree reaches
// it — the paper's "cannot exceed a given value k" variant; zero improves
// to local optimality.
//
// The factory holds every node in one slab in dense order. The children
// and subtree-size lists are capacity-capped windows of two arenas laid
// out by the initial tree; a list that outgrows its window moves to the
// heap. The size arena also holds every node's belief window, laid out
// by c's half edges. The factory resets a node each time it is asked for
// it, so one factory serves any number of sequential runs but only one
// run at a time: concurrent runs each need their own.
func NewFactory(c *graph.CSR, mode Mode, target int, initial *tree.Dense) sim.Factory {
	idx := initial.Index()
	nv := initial.N()
	nodes := make([]Node, nv)
	// off[v] is where node v's window starts in the two arenas.
	off := make([]int32, nv+1)
	for v := range nv {
		off[v+1] = off[v] + int32(len(initial.Children(int32(v))))
	}
	kids := make([]sim.NodeID, off[nv])
	ints := make([]int, int(off[nv])+c.HalfEdges())
	sizes, beliefs := ints[:off[nv]], ints[off[nv]:]
	// Multi and Hybrid nodes take their grant state from one more slab. A
	// Single-mode node carries none: its grant pointer stays nil.
	var grants []grant
	if mode != Single {
		grants = make([]grant, nv)
	}
	return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		di := idx.MustOf(id)
		lo, hi := off[di], off[di+1]
		blo := c.HalfEdge(di, 0)
		bhi := blo + int32(c.Degree(di))
		n := &nodes[di]
		*n = Node{
			id:       id,
			mode:     mode,
			phase:    mode.initialPhase(),
			target:   target,
			children: kids[lo:hi:hi],
			sizes:    sizes[lo:hi:hi],
			belief:   beliefs[blo:bhi:bhi],
			fixChild: noCand,
		}
		clear(n.sizes)
		clear(n.belief)
		if grants != nil {
			n.grant = &grants[di]
			n.resetGrant()
		}
		for k, ch := range initial.Children(di) {
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
		n.startRound(ctx, mStart{round: 1, cut: noCand, owner: noCand, phase: n.phase})
	}
}

// Recv dispatches one message, deferring those that arrive ahead of this
// node's round or before its fragment identity is known (the paper's
// "the answer has to be delayed until x learns its fragment identity").
// Messages are flat wire records: deferring one is a value copy, and a
// processed one is left in the engine's slab.
//
// Every deferred message was rejected under the node's current deferral
// state (see deferState), so the list is replayed only when a processed
// message changed that state; otherwise each entry would be rejected
// again. With the list empty, as it almost always is, the state is not
// read at all.
func (n *Node) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	if len(n.deferred) == 0 {
		if !n.process(ctx, from, m) {
			n.deferMsg(from, m)
		}
		return
	}
	before := n.deferState()
	if !n.process(ctx, from, m) {
		n.deferMsg(from, m)
		return
	}
	if n.deferState() != before {
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

// retryDeferred replays the deferred list in arrival order, each record
// read where it lies, compacting the entries that stay deferred in place,
// and passes over it again only while a replayed message changed the
// deferral state. No handler touches the list, so the records stay put
// while they are processed.
func (n *Node) retryDeferred(ctx sim.Context) {
	for again := true; again; {
		again = false
		kept := 0
		for i := range n.deferred {
			d := &n.deferred[i]
			before := n.deferState()
			if !n.process(ctx, d.from, &d.msg) {
				if kept != i {
					n.deferred[kept] = *d
				}
				kept++
			} else if n.deferState() != before {
				again = true
			}
		}
		n.deferred = n.deferred[:kept]
	}
}

// deferMsg appends a copy of m, from from, to the deferred list.
func (n *Node) deferMsg(from sim.NodeID, m *sim.WireMsg) {
	n.deferred = append(n.deferred, deferredMsg{})
	d := &n.deferred[len(n.deferred)-1]
	d.from, d.msg = from, *m
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
		msg := decBFSBack(m)
		n.onBFSBack(ctx, from, &msg)
	case opUpdate:
		switch msg := decUpdate(m); {
		case msg.release:
			n.onRelease(ctx, from)
		case msg.claim:
			n.onClaim(ctx, from, msg)
		default:
			n.onUpdate(ctx, from, msg)
		}
	case opChild:
		n.onChild(ctx, from, decChild(m))
	case opRoundDone:
		n.onRoundDone(ctx, from, decRoundDone(m))
	case opTerm:
		n.onTerm(ctx, mTerm{round: round})
	default:
		panic(fmt.Sprintf("mdst: unexpected message %s", m.Kind()))
	}
	return true
}

// resetRound clears all per-round state but the SearchDegree aggregate
// and the report's via (see search), which the round's search and wave
// reset.
func (n *Node) resetRound() {
	n.searchPending = 0
	n.kAll = 0
	n.xBelow = false
	n.fragKnown = false
	n.frag = fragID{}
	n.bfsPending = 0
	n.hasReport = false
	n.report = edgeReport{}
	n.improved = false
	n.label = noLabel
	n.lo, n.hi = noLo, noLabel
	n.size = 1
	n.moved = 0
	n.isOwner = false
	n.actingRoot = false
	n.ownerPending = 0
	n.ownerHasBest = false
	n.ownerBest = edgeReport{}
	n.ownerArrival = 0
	n.ownerSwapped = false
	n.awaitingDone = false
	if n.grant != nil {
		n.resetGrant()
	}
}

// resetGrant clears the Multi-round grant state, which a Single round
// never sets.
func (n *Node) resetGrant() {
	n.up = noCand
	n.halves = 0
	n.claimStep = claimNone
	n.claim = noCand
	n.relTo = n.relTo[:0]
	n.relFrom = noCand
	n.relPending = 0
}

// noAgg is the empty SearchDegree aggregate, which every entry beats.
var noAgg = degAgg{cand: noCand}

// resetSearch empties the SearchDegree aggregate: for a deg convergecast,
// or for a Single round's wave to gather the next round's.
func (n *Node) resetSearch() {
	n.agg, n.via, n.part = noAgg, n.id, noAgg
}

// take merges a into agg. Any change to the aggregate means that a
// supplied the winning entry, so the via pointer follows from, the
// neighbour (or self) a came from ("each node keeps, in a variable named
// via, by which processor arrived the maximum degree with minimum
// identity").
func (n *Node) take(from sim.NodeID, a degAgg) {
	if m := mergeAgg(n.agg, a); m != n.agg {
		n.agg, n.via = m, from
	}
}

// search returns the SearchDegree aggregate of this node's subtree and the
// neighbour (or self) toward its candidate, along which MoveRoot travels.
// After a deg convergecast agg holds it whole. After a Single round's wave
// it is agg, part (via the child holding the report) and this node's own
// entry, which may only have risen since; on the exchange's cycle, part
// is dropped when that child stops being one (see gather). An owner's part
// never outlives its round, so reportVia is part's via wherever search
// reads it.
func (n *Node) search() (degAgg, sim.NodeID) {
	agg, via := n.agg, n.via
	if m := mergeAgg(agg, n.part); m != agg {
		agg, via = m, n.reportVia
	}
	if m := mergeAgg(agg, n.ownContribution()); m != agg {
		agg, via = m, n.id
	}
	return agg, via
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

// neighborIndex returns w's position in the sorted neighbour list, which
// belief parallels.
func neighborIndex(ctx sim.Context, w sim.NodeID) int {
	i, ok := slices.BinarySearch(ctx.Neighbors(), w)
	if !ok {
		panic(fmt.Sprintf("mdst: %d is no neighbour", w))
	}
	return i
}

// childIndex returns c's position in the sorted children list. It runs
// for every bfsback of a Single round, so it is a plain loop:
// slices.BinarySearch does not inline.
func (n *Node) childIndex(c sim.NodeID) int {
	lo, hi := 0, len(n.children)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); n.children[m] < c {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(n.children) || n.children[lo] != c {
		panic(fmt.Sprintf("mdst: node %d has no child %d", n.id, c))
	}
	return lo
}

// removeChild drops c and its size from the children list and returns
// that size.
func (n *Node) removeChild(c sim.NodeID) int {
	i := n.childIndex(c)
	size := n.sizes[i]
	n.children = slices.Delete(n.children, i, i+1)
	n.sizes = slices.Delete(n.sizes, i, i+1)
	return size
}

// addChild inserts c with the given subtree size, keeping the list sorted.
func (n *Node) addChild(c sim.NodeID, size int) {
	i, _ := slices.BinarySearch(n.children, c)
	n.children = slices.Insert(n.children, i, c)
	n.sizes = slices.Insert(n.sizes, i, size)
}

// subtreeSize is the size of this node's subtree: itself plus its
// children's subtrees.
func (n *Node) subtreeSize() int {
	s := 1
	for _, c := range n.sizes {
		s += c
	}
	return s
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
