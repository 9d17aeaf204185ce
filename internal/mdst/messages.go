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
// before, and the encoders write at the send boundary: the records sent
// per edge or per tree node each round (start, deg, bfs, cousin, bfsback)
// straight into the engine's send slot (put*), the rest through a
// constructor and sim.Send. No message ever exists as a heap object: the
// former pooled-pointer scheme (and the interface boxing before it) is
// gone entirely.

// wire is the registered schema; opcode order is the declaration order.
var wire = sim.Register("mdst",
	sim.OpSpec{Kind: "mdst.start", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.deg", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.move", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.cut", MinPayload: 2, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.bfs", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.cousin", MinPayload: 4, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.bfsback", MinPayload: 5, MaxPayload: 8, Rounded: true},
	sim.OpSpec{Kind: "mdst.update", MinPayload: 2, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.child", MinPayload: 2, MaxPayload: 4, Rounded: true},
	sim.OpSpec{Kind: "mdst.rounddone", MinPayload: 2, MaxPayload: 4, Rounded: true},
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
// After a Single round's exchange it announces the two published degrees
// that exchange lowered (DESIGN.md deviation 8): those of the owner and of
// the cut child c, which both lost the cut edge; both are noCand when the
// round exchanged nothing. fell says c's degree fell from k-1 to k-2: the
// nodes of X (c's non-tree neighbours of degree at most k-2) recognise
// themselves from it, and their ancestors lose their exhausted flags
// (deviation 1). phase is the round's mode (Single or Multi — Hybrid runs
// switch mid-algorithm). moved is the size of the subtree that exchange
// moved, which completes the subtree sizes its path left pending
// (deviation 7). fell, phase and moved share the last word.
type mStart struct {
	round      int
	cut, owner sim.NodeID
	fell       bool
	phase      Mode
	moved      int
}

// putStart writes a start record into m, a zeroed send slot (sim.Context
// Out). The hot records are written in place this way, field by field,
// never built on the stack and copied.
func putStart(m *sim.WireMsg, s *mStart) {
	m.Op, m.Nw = opStart, 4
	m.W[0], m.W[1], m.W[2] = int64(s.round), int64(s.cut), int64(s.owner)
	m.W[3] = int64(s.moved)<<3 | sim.B2W(s.fell)<<2 | int64(s.phase)
}

func decStart(m *sim.WireMsg) mStart {
	return mStart{round: int(m.W[0]), cut: sim.NodeID(m.W[1]), owner: sim.NodeID(m.W[2]),
		fell: m.W[3]&4 != 0, phase: Mode(m.W[3] & 3), moved: int(m.W[3] >> 3)}
}

// mDeg is the SearchDegree convergecast: the maximum tree degree in the
// sender's subtree, the minimum identity of an eligible node attaining it
// (noCand if none) and whether the subtree holds a node of X. Only rounds
// that cannot take their owner from the previous round run it (DESIGN.md
// deviation 9).
type mDeg struct {
	round  int
	k      int
	cand   sim.NodeID
	xBelow bool
}

func putDeg(m *sim.WireMsg, round, k int, cand sim.NodeID, xBelow bool) {
	m.Op, m.Nw = opDeg, 4
	m.W[0], m.W[1], m.W[2], m.W[3] = int64(round), int64(k), int64(cand), sim.B2W(xBelow)
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
// label, or noLabel (deviation 7). In a Multi round the word names the
// owner's parent fragment instead, by its root, or is noCand.
//
// In a Multi round whose owner has a parent fragment, the fragment's wave
// crosses each tree edge below the fragment root as two records: a relayed
// cut, the owner's four numbers sent on by a member, and a short cut with
// the fragment root (DESIGN.md deviation 4). A plain bfs has no word left
// for the parent fragment, and its receiver must know whether to wait for
// one.
type mCut struct {
	round int
	k     int
	owner sim.NodeID
	label int
	root  sim.NodeID // the short cut's fragment root; noCand on a cut
}

func newCut(round, k int, owner sim.NodeID, label int) sim.WireMsg {
	return sim.WireMsg{Op: opCut, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), int64(k), int64(owner), int64(label)}}
}

// newCutRoot is the short cut: the fragment root of a relayed cut.
func newCutRoot(round int, root sim.NodeID) sim.WireMsg {
	return sim.WireMsg{Op: opCut, Nw: 2, W: [sim.MaxPayloadWords]int64{int64(round), int64(root)}}
}

func decCut(m *sim.WireMsg) mCut {
	if m.Nw == 2 {
		return mCut{round: int(m.W[0]), root: sim.NodeID(m.W[1])}
	}
	return mCut{round: int(m.W[0]), k: int(m.W[1]), owner: sim.NodeID(m.W[2]), label: int(m.W[3]), root: noCand}
}

// mBFS is the paper's <BFS, k, p, p'> fragment wave. A Single round has one
// owner, the acting root, so there the owner word is redundant and carries
// a pre-order label instead (deviation 7): the receiver's own on a tree
// edge, the sender's on a probe. The phase, known to both ends, says which
// (see fields). A probe carries the sender's degree in place of k: a Multi
// round's receiver may record the edge from it (deviation 4), and a full
// Single round learns the published degrees from it (deviation 8).
type mBFS struct {
	round    int
	k        int
	word     int64 // the owner in a Multi round, a label in a Single round
	fragRoot sim.NodeID
}

func putBFS(m *sim.WireMsg, round, k int, word int64, fragRoot sim.NodeID) {
	m.Op, m.Nw = opBFS, 4
	m.W[0], m.W[1], m.W[2], m.W[3] = int64(round), int64(k), word, int64(fragRoot)
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

func putCousin(m *sim.WireMsg, round, deg int, owner, fragRoot sim.NodeID) {
	m.Op, m.Nw = opCousin, 4
	m.W[0], m.W[1], m.W[2], m.W[3] = int64(round), int64(deg), int64(owner), int64(fragRoot)
}

func decCousin(m *sim.WireMsg) mCousin {
	return mCousin{round: int(m.W[0]), deg: int(m.W[1]), owner: sim.NodeID(m.W[2]), fragRoot: sim.NodeID(m.W[3])}
}

// mBFSBack is the aggregate convergecast up a fragment: the best outgoing
// edge found in the sender's subtree (the paper's "BFSBack" with the
// parenthesised edge slot) plus the multi-root improvement flag and the
// sender's subtree size (deviation 7). It is the schema's one
// variable-size record, its payload length telling the forms apart: the
// short form (no edge to report) carries round, flags, the size and the
// subtree's qualifying label range lo..hi; the long form carries round,
// size and flags in one word, the edge's two ends, their two degrees in
// one word and the far fragment root, and needs no range: the report
// alone proves every ancestor in the fragment eligible. The flags hold
// the improvement flag and, in a Multi round, the claimer flag: the
// sender's subtree holds an owner whose claim on this fragment waits for
// the fragment's owner to release it (deviation 4). A Single round's
// record of either form ends with the sender's subtree's SearchDegree
// aggregate, k and cand (deviation 9).
type mBFSBack struct {
	round     int
	hasReport bool
	report    edgeReport
	improved  bool
	claimer   bool
	size      int
	lo, hi    int
	search    optAgg // set on a Single round's record
}

// putBFSBack writes the long form when report is not nil, else the
// short form, and appends the aggregate when search is not nil.
func putBFSBack(m *sim.WireMsg, round int, improved, claimer bool, size, lo, hi int, report *edgeReport, search *degAgg) {
	flags := sim.B2W(improved) | sim.B2W(claimer)<<1
	m.Op = opBFSBack
	m.W[0] = int64(round)
	if report == nil {
		m.Nw = 5
		m.W[1], m.W[2], m.W[3], m.W[4] = flags, int64(size), int64(lo), int64(hi)
	} else {
		m.Nw = 6
		m.W[1], m.W[2], m.W[3] = int64(size)<<2|flags, int64(report.u), int64(report.v)
		m.W[4], m.W[5] = int64(report.du)<<32|int64(report.dv), int64(report.vroot)
	}
	appendAgg(m, search)
}

func decBFSBack(m *sim.WireMsg) mBFSBack {
	var b mBFSBack
	b.search = decAgg(m, 7)
	b.round = int(m.W[0])
	if m.Nw == 5 || m.Nw == 7 {
		b.improved, b.claimer = m.W[1]&1 != 0, m.W[1]&2 != 0
		b.size, b.lo, b.hi = int(m.W[2]), int(m.W[3]), int(m.W[4])
		return b
	}
	b.hasReport = true
	b.improved, b.claimer, b.size = m.W[1]&1 != 0, m.W[1]&2 != 0, int(m.W[1]>>2)
	b.lo, b.hi = noLo, noLabel
	b.report = edgeReport{
		u: sim.NodeID(m.W[2]), v: sim.NodeID(m.W[3]),
		du: int(m.W[4] >> 32), dv: int(uint32(m.W[4])),
		vroot: sim.NodeID(m.W[5]),
	}
	return b
}

// optAgg is a SearchDegree aggregate that a record may carry (DESIGN.md
// deviation 9): a Single round's bfsback carries its sender's subtree's,
// and an exchange's update, child and rounddone carry the aggregate that
// its cycle gathers from the cut child c back to the owner. ok is false on
// a record that carries none.
type optAgg struct {
	degAgg
	ok bool
}

// ptr returns the aggregate to append, nil when there is none.
func (o *optAgg) ptr() *degAgg {
	if !o.ok {
		return nil
	}
	return &o.degAgg
}

// appendAgg appends a SearchDegree aggregate, k then cand, to m's payload
// unless a is nil.
func appendAgg(m *sim.WireMsg, a *degAgg) {
	if a != nil {
		m.W[m.Nw], m.W[m.Nw+1] = int64(a.k), int64(a.cand)
		m.Nw += 2
	}
}

// decAgg reads the aggregate appendAgg put at the end of m, which holds
// one exactly when its payload is at least least words long.
func decAgg(m *sim.WireMsg, least uint8) optAgg {
	if m.Nw < least {
		return optAgg{}
	}
	return optAgg{degAgg{k: int(m.W[m.Nw-2]), cand: sim.NodeID(m.W[m.Nw-1])}, true}
}

// mUpdate travels from the owner down the via chain to the chosen outgoing
// edge, reversing the path (the paper's "update" message). Every node on
// the chain reported the chosen edge (u, v) itself, so the record need not
// name it. fell, set by the first receiver c, says c's degree fell from
// k-1 to k-2; it rides on through child and rounddone back to the owner.
// pub is the published degree of an end of the cut edge (DESIGN.md
// deviation 8): the owner's on the first hop, c's from there on, so that
// through child and rounddone each end learns the other's. The flags and
// pub share one word. From c on, a Single round's update may also carry
// the SearchDegree aggregate the cycle gathers (deviation 9), which keeps
// the record within the paper's four numbers.
//
// Multi rounds also run their grants on update (DESIGN.md deviation 4):
//   - a claim travels the same chain, changing nothing, and carries u and
//     the claiming owner (in v): u and then v register it, and with query
//     set they decide whether the owner won them, u passing uWon on to v;
//   - a release travels down the children that reported a claimer below
//     them, telling each claiming owner that its parent fragment's claims
//     are all in.
//
// Every form opens with (round, flags); a claim adds u and the owner, and
// an exchange's update may add the aggregate.
type mUpdate struct {
	round int
	u, v  sim.NodeID // a claim's u and owner
	first bool       // true on the hop leaving the owner (the cut edge)
	fell  bool
	pub   int
	cycle optAgg

	claim, query, uWon, release bool
}

const (
	updFirst = 1 << iota
	updFell
	updClaim
	updQuery
	updUWon
	updRelease
)

// pubShift places a published degree above the flags of update, child and
// rounddone. The shift is arithmetic, so a negative degree survives it.
const pubShift = 8

func newUpdate(round int, first, fell bool, pub int, cycle *degAgg) sim.WireMsg {
	m := roundFlags(opUpdate, round, sim.B2W(first)|sim.B2W(fell)<<1|int64(pub)<<pubShift)
	appendAgg(&m, cycle)
	return m
}

// newClaim is a claim by owner on the edge recorded at u; flags holds
// updQuery and updUWon.
func newClaim(round int, u, owner sim.NodeID, flags int64) sim.WireMsg {
	return sim.WireMsg{Op: opUpdate, Nw: 4, W: [sim.MaxPayloadWords]int64{int64(round), updClaim | flags, int64(u), int64(owner)}}
}

func newRelease(round int) sim.WireMsg {
	return roundFlags(opUpdate, round, updRelease)
}

func decUpdate(m *sim.WireMsg) mUpdate {
	round, f := int(m.W[0]), m.W[1]
	switch {
	case f&updRelease != 0:
		return mUpdate{round: round, release: true}
	case f&updClaim != 0:
		return mUpdate{round: round, u: sim.NodeID(m.W[2]), v: sim.NodeID(m.W[3]),
			claim: true, query: f&updQuery != 0, uWon: f&updUWon != 0}
	}
	return mUpdate{round: round, first: f&updFirst != 0, fell: f&updFell != 0, pub: int(f >> pubShift), cycle: decAgg(m, 4)}
}

// mChild is the paper's "child" message: the reattachment handshake,
// carrying update's fell bit, c's published degree and the SearchDegree
// aggregate the cycle gathered, if any (DESIGN.md deviation 9).
type mChild struct {
	round int
	fell  bool
	pub   int
	cycle optAgg
}

// Flags of rounddone; child carries only doneFell.
const (
	doneFell = 1 << iota
	doneAnswer
	doneWon
	doneReleased
	doneImproved
)

func newChild(round int, fell bool, pub int, cycle *degAgg) sim.WireMsg {
	m := roundFlags(opChild, round, sim.B2W(fell)|int64(pub)<<pubShift)
	appendAgg(&m, cycle)
	return m
}

func decChild(m *sim.WireMsg) mChild {
	return mChild{round: int(m.W[0]), fell: m.W[1]&doneFell != 0, pub: int(m.W[1] >> pubShift), cycle: decAgg(m, 4)}
}

// mRoundDone notifies the waiting owner that its exchange completed ("a
// round is terminated when a node received a child message"); the paper
// does not say how the root learns this, so we convergecast it (deviation
// documented in DESIGN.md). It carries update's fell bit, c's published
// degree and the cycle's SearchDegree aggregate, if any, to the owner
// (deviation 9).
//
// In a Multi round's grant it also carries v's answer to a claim, to u
// and up the via chain to the claiming owner (answer; won says the owner
// won both endpoints, and each node on the way reverses its step), and,
// as a release's acknowledgement, travels back along the release's path
// once the released subtree has settled (released, with the improvement
// flag).
type mRoundDone struct {
	round                                 int
	fell, answer, won, released, improved bool
	pub                                   int
	cycle                                 optAgg
}

func newRoundDone(round int, fell bool, pub int, cycle *degAgg) sim.WireMsg {
	m := roundFlags(opRoundDone, round, sim.B2W(fell)|int64(pub)<<pubShift)
	appendAgg(&m, cycle)
	return m
}

func newAnswer(round int, won bool) sim.WireMsg {
	return roundFlags(opRoundDone, round, doneAnswer|sim.B2W(won)*doneWon)
}

func newReleased(round int, improved bool) sim.WireMsg {
	return roundFlags(opRoundDone, round, doneReleased|sim.B2W(improved)*doneImproved)
}

func decRoundDone(m *sim.WireMsg) mRoundDone {
	f := m.W[1]
	return mRoundDone{round: int(m.W[0]), fell: f&doneFell != 0, answer: f&doneAnswer != 0, won: f&doneWon != 0,
		released: f&doneReleased != 0, improved: f&doneImproved != 0, pub: int(f >> pubShift), cycle: decAgg(m, 4)}
}

// roundFlags encodes the records whose payload is the round and a flags
// word.
func roundFlags(op sim.Op, round int, flags int64) sim.WireMsg {
	return sim.WireMsg{Op: op, Nw: 2, W: [sim.MaxPayloadWords]int64{int64(round), flags}}
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
// recording side, v the far endpoint, du/dv their tree degrees at
// recording time, vroot the far fragment's root. The recording side is
// the smaller fragment identity for an edge between two fragments of one
// owner and the child fragment for an edge into the owner's parent
// fragment, which is how the owner tells the two apart (deviation 4).
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
