package mdst

import (
	"math"

	"mdegst/internal/sim"
)

// Message vocabulary of the improvement protocol, registered as the wire
// schema "mdst" (DESIGN.md §8). Every message carries its round number as
// payload word 0 so the engines can attribute counts per round and the
// nodes can defer messages that arrive ahead of their local round (needed
// only under non-FIFO delivery; under the paper's FIFO channels the round
// tags act as assertions).
//
// Messages travel as flat sim.WireMsg records — an opcode plus the
// identities/integers carried — and the word counts of the paper's "at
// most four numbers or identities by message" bit-complexity accounting
// are derived from the records themselves (opcode/kind tag + payload
// words; our BFSBack aggregate is larger, see DESIGN.md deviation notes
// and experiment E6). The typed structs below are a decode layer only:
// each handler decodes its record at entry so the protocol logic reads as
// before, and the constructors encode at the send boundary. No message
// ever exists as a heap object: the former pooled-pointer scheme (and the
// interface boxing before it) is gone entirely.

// wire is the registered schema; opcode order is the declaration order.
var wire = sim.Register("mdst",
	sim.OpSpec{Kind: "mdst.start", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.deg", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.move", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.cut", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.bfs", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.cousin", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.bfsback", MinPayload: 5, MaxPayload: 8, Rounded: true},
	sim.OpSpec{Kind: "mdst.update", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.child", MinPayload: 2, MaxPayload: 2, Rounded: true},
	sim.OpSpec{Kind: "mdst.rounddone", MinPayload: 2, MaxPayload: 2, Rounded: true},
	sim.OpSpec{Kind: "mdst.term", MinPayload: 1, MaxPayload: 1, Rounded: true},
)

var (
	opStart     = wire.Op(0)
	opDeg       = wire.Op(1)
	opMove      = wire.Op(2)
	opCut       = wire.Op(3)
	opBFS       = wire.Op(4)
	opCousin    = wire.Op(5)
	opBFSBack   = wire.Op(6)
	opUpdate    = wire.Op(7)
	opChild     = wire.Op(8)
	opRoundDone = wire.Op(9)
	opTerm      = wire.Op(10)
)

// noCand marks the absence of an improvement candidate in the SearchDegree
// convergecast (all maximum-degree nodes exhausted).
const noCand sim.NodeID = -1

// Pre-order labels of a Single round's tree (DESIGN.md deviation 7): the
// owner is 0 and a subtree of size s rooted at label l covers l..l+s-1.
// noLabel marks a round without labels, and on a probe a sender whose
// degree exceeds k-2; an empty lo/hi range is (noLo, noLabel).
const (
	noLabel = -1
	noLo    = math.MaxInt32
)

// mStart begins a round: broadcast from the acting root down the tree.
// fell names the child c the previous round's exchange cut from its owner
// when c's degree fell from k-1 to k-2, and is noCand otherwise: the nodes
// of X (c's non-tree neighbours of degree at most k-2) recognise
// themselves from it, and their ancestors lose their exhausted flags
// (DESIGN.md deviation 1). phase is the round's mode (Single or Multi —
// Hybrid runs switch mid-algorithm). moved is the size of the subtree that
// exchange moved, which completes the subtree sizes its path left pending
// (deviation 7).
type mStart struct {
	round int
	fell  sim.NodeID
	phase Mode
	moved int
}

func newStart(round int, fell sim.NodeID, phase Mode, moved int) sim.WireMsg {
	return sim.WireMsg{Op: opStart, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), int64(fell), int64(phase), int64(moved)}}
}

func decStart(m *sim.WireMsg) mStart {
	return mStart{round: int(m.W[0]), fell: sim.NodeID(m.W[1]), phase: Mode(m.W[2]), moved: int(m.W[3])}
}

// mDeg is the SearchDegree convergecast: the maximum tree degree in the
// sender's subtree, the minimum identity of an eligible node attaining it
// (noCand if none) and whether the subtree holds a node of X.
type mDeg struct {
	round  int
	k      int
	cand   sim.NodeID
	xBelow bool
}

func newDeg(round, k int, cand sim.NodeID, xBelow bool) sim.WireMsg {
	return sim.WireMsg{Op: opDeg, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), int64(k), int64(cand), sim.B2W(xBelow)}}
}

func decDeg(m *sim.WireMsg) mDeg {
	return mDeg{round: int(m.W[0]), k: int(m.W[1]), cand: sim.NodeID(m.W[2]), xBelow: m.W[3] != 0}
}

// mMove implements MoveRoot: it travels along the stored "via" pointers
// toward the target, reversing the root path as it goes. n is the number
// of nodes, from which each node on the path sizes its old parent's new
// subtree (deviation 7).
type mMove struct {
	round  int
	k      int
	target sim.NodeID
	n      int
}

func newMove(round, k int, target sim.NodeID, n int) sim.WireMsg {
	return sim.WireMsg{Op: opMove, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), int64(k), int64(target), int64(n)}}
}

func decMove(m *sim.WireMsg) mMove {
	return mMove{round: int(m.W[0]), k: int(m.W[1]), target: sim.NodeID(m.W[2]), n: int(m.W[3])}
}

// mCut is the paper's <cut, k, p>: the owner virtually severs its children,
// making each the root of a fragment. label is the receiver's pre-order
// label, or noLabel (deviation 7).
type mCut struct {
	round int
	k     int
	owner sim.NodeID
	label int
}

func newCut(round, k int, owner sim.NodeID, label int) sim.WireMsg {
	return sim.WireMsg{Op: opCut, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), int64(k), int64(owner), int64(label)}}
}

func decCut(m *sim.WireMsg) mCut {
	return mCut{round: int(m.W[0]), k: int(m.W[1]), owner: sim.NodeID(m.W[2]), label: int(m.W[3])}
}

// mBFS is the paper's <BFS, k, p, p'> fragment wave. A Single round has one
// owner, the acting root, so there the owner word is redundant and carries
// a pre-order label instead (deviation 7): the receiver's own on a tree
// edge, the sender's on a probe. The phase, known to both ends, says which
// (see fields).
type mBFS struct {
	round    int
	k        int
	word     int64 // the owner in a Multi round, a label in a Single round
	fragRoot sim.NodeID
}

func newBFS(round, k int, word int64, fragRoot sim.NodeID) sim.WireMsg {
	return sim.WireMsg{Op: opBFS, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), int64(k), word, int64(fragRoot)}}
}

func decBFS(m *sim.WireMsg) mBFS {
	return mBFS{round: int(m.W[0]), k: int(m.W[1]), word: m.W[2], fragRoot: sim.NodeID(m.W[3])}
}

// fields reads the record's owner and label in the given phase.
func (b mBFS) fields(phase Mode) (owner sim.NodeID, label int) {
	if phase == Single {
		return singleOwner, int(b.word)
	}
	return sim.NodeID(b.word), noLabel
}

// singleOwner is the owner half of every fragment identity in a Single
// round: all fragments share the owner, which members are never told.
const singleOwner = noCand

// mCousin answers a BFS probe across a non-tree edge: the replier's tree
// degree and fragment identity, from which the probing side records an
// outgoing edge (the paper's "cousin" answer).
type mCousin struct {
	round    int
	deg      int
	owner    sim.NodeID
	fragRoot sim.NodeID
}

func newCousin(round, deg int, owner, fragRoot sim.NodeID) sim.WireMsg {
	return sim.WireMsg{Op: opCousin, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), int64(deg), int64(owner), int64(fragRoot)}}
}

func decCousin(m *sim.WireMsg) mCousin {
	return mCousin{round: int(m.W[0]), deg: int(m.W[1]), owner: sim.NodeID(m.W[2]), fragRoot: sim.NodeID(m.W[3])}
}

// mBFSBack is the aggregate convergecast up a fragment: the best outgoing
// edge found in the sender's subtree (the paper's "BFSBack" with the
// parenthesised edge slot) plus the multi-root improvement flag and the
// sender's subtree size (deviation 7). It is the schema's one
// variable-size record, its payload length telling the forms apart: the
// short form (no edge to report) carries round, the improvement flag, the
// size and the subtree's qualifying label range lo..hi; the long form
// carries round, size, the improvement flag and the five edge-report
// words, and needs no range: the report alone proves every ancestor in
// the fragment eligible.
type mBFSBack struct {
	round     int
	hasReport bool
	report    edgeReport
	improved  bool
	size      int
	lo, hi    int
}

// newBFSBack encodes the long form when report is not nil, else the
// short form.
func newBFSBack(round int, improved bool, size, lo, hi int, report *edgeReport) sim.WireMsg {
	if report == nil {
		return sim.WireMsg{Op: opBFSBack, Nw: 5, W: [sim.MaxPayloadWords]int64{
			int64(round), sim.B2W(improved), int64(size), int64(lo), int64(hi)}}
	}
	return sim.WireMsg{Op: opBFSBack, Nw: 8, W: [sim.MaxPayloadWords]int64{
		int64(round), int64(size), sim.B2W(improved),
		int64(report.u), int64(report.v), int64(report.du), int64(report.dv), int64(report.vroot)}}
}

func decBFSBack(m *sim.WireMsg) mBFSBack {
	if m.Nw == 5 {
		return mBFSBack{round: int(m.W[0]), improved: m.W[1] != 0, size: int(m.W[2]), lo: int(m.W[3]), hi: int(m.W[4])}
	}
	return mBFSBack{
		round:     int(m.W[0]),
		hasReport: true,
		improved:  m.W[2] != 0,
		size:      int(m.W[1]),
		lo:        noLo,
		hi:        noLabel,
		report: edgeReport{
			u: sim.NodeID(m.W[3]), v: sim.NodeID(m.W[4]),
			du: int(m.W[5]), dv: int(m.W[6]),
			vroot: sim.NodeID(m.W[7]),
		},
	}
}

// mUpdate travels from the owner down the via chain to the chosen outgoing
// edge, reversing the path (the paper's "update" message). fell, set by
// the first receiver c, says c's degree fell from k-1 to k-2; it rides on
// through child and rounddone back to the owner. The two flags share one
// word, which keeps the record within the paper's four numbers.
type mUpdate struct {
	round int
	u, v  sim.NodeID
	first bool // true on the hop leaving the owner (the cut edge)
	fell  bool
}

func newUpdate(round int, u, v sim.NodeID, first, fell bool) sim.WireMsg {
	flags := sim.B2W(first) | sim.B2W(fell)<<1
	return sim.WireMsg{Op: opUpdate, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), int64(u), int64(v), flags}}
}

func decUpdate(m *sim.WireMsg) mUpdate {
	return mUpdate{round: int(m.W[0]), u: sim.NodeID(m.W[1]), v: sim.NodeID(m.W[2]), first: m.W[3]&1 != 0, fell: m.W[3]&2 != 0}
}

// mChild is the paper's "child" message: the reattachment handshake,
// carrying update's fell bit.
type mChild struct {
	round int
	fell  bool
}

func newChild(round int, fell bool) sim.WireMsg { return roundFell(opChild, round, fell) }

func decChild(m *sim.WireMsg) mChild { return mChild{round: int(m.W[0]), fell: m.W[1] != 0} }

// mRoundDone notifies the waiting owner that its exchange completed ("a
// round is terminated when a node received a child message"); the paper
// does not say how the root learns this, so we convergecast it (deviation
// documented in DESIGN.md). It carries update's fell bit to the owner.
type mRoundDone struct {
	round int
	fell  bool
}

func newRoundDone(round int, fell bool) sim.WireMsg { return roundFell(opRoundDone, round, fell) }

func decRoundDone(m *sim.WireMsg) mRoundDone {
	return mRoundDone{round: int(m.W[0]), fell: m.W[1] != 0}
}

// roundFell encodes the records whose payload is the round and a fell bit.
func roundFell(op sim.Op, round int, fell bool) sim.WireMsg {
	return sim.WireMsg{Op: op, Nw: 2, W: [sim.MaxPayloadWords]int64{int64(round), sim.B2W(fell)}}
}

// mTerm is the final broadcast: the tree is locally optimal (or a chain);
// every node learns termination by process.
type mTerm struct {
	round int
}

func newTerm(round int) sim.WireMsg {
	return sim.WireMsg{Op: opTerm, Nw: 1, W: [sim.MaxPayloadWords]int64{int64(round)}}
}

// edgeReport describes a recorded outgoing edge: u is the endpoint on the
// recording (smaller fragment identity) side, v the far endpoint, du/dv
// their tree degrees at recording time, vroot the far fragment's root (the
// owner is implied: reports never cross owners).
type edgeReport struct {
	u, v   sim.NodeID
	du, dv int
	vroot  sim.NodeID
}

// key is the total order used everywhere an edge is chosen: primarily the
// paper's rule "the outgoing edge whose maximal degree of its extremities is
// minimal", with identity tie-breaks so that every aggregation is
// deterministic and delivery-order independent.
func (r edgeReport) key() [4]int64 {
	maxd, mind := r.du, r.dv
	if mind > maxd {
		maxd, mind = mind, maxd
	}
	minID, maxID := r.u, r.v
	if minID > maxID {
		minID, maxID = maxID, minID
	}
	return [4]int64{int64(maxd), int64(mind), int64(minID), int64(maxID)}
}

// better reports whether r precedes o in the choosing order.
func (r edgeReport) better(o edgeReport) bool {
	a, b := r.key(), o.key()
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// fragID orders fragment identities (owner-major), the paper's
// "(r,r') < (p,p')" comparison.
type fragID struct {
	owner, root sim.NodeID
}

func (f fragID) less(o fragID) bool {
	if f.owner != o.owner {
		return f.owner < o.owner
	}
	return f.root < o.root
}
