package mdst

import (
	"fmt"

	"mdegst/internal/sim"
)

// StateCodec implementation: the improvement protocol supports barrier
// checkpoint/resume (DESIGN.md §8). The encoded state is everything Recv
// can have mutated — the tree view, the cross-round flags, the per-round
// search/fragment/owner machinery and the deferred-message list. The
// factory-construction inputs (identity, mode, target) are not encoded:
// Resume rebuilds nodes through the same Factory before decoding.
//
// Encode and Decode walk the fields in one fixed order; the decoder's
// sticky error plus the engine's trailing-bytes check catch any drift
// between the two. Each state opens with stateFormat, so a state written
// by a binary with another field layout is refused, never misread.

// stateFormat numbers the layout below. The first layout had no such word
// and opened with the phase (0 or 1), so its states fail the check too.
// Format 3 added the subtree sizes and labels (DESIGN.md deviation 7),
// format 4 the Multi-round grant state (deviation 4). A node in a Single
// round holds no grant state, so its state keeps format 3 and Single runs
// checkpoint as before; a format-3 state of a node in a Multi round was
// written before grants existed and is refused.
const (
	stateFormat       = 4
	singleStateFormat = 3
)

// EncodeState implements sim.StateCodec.
func (n *Node) EncodeState(e *sim.StateEncoder) {
	format := int64(stateFormat)
	if n.phase == Single {
		format = singleStateFormat
	}
	e.Int(format)
	e.Int(int64(n.phase))
	e.ID(n.parent)
	e.Bool(n.hasParent)
	e.IDs(n.children)
	e.Int(int64(len(n.sizes)))
	for _, s := range n.sizes {
		e.Int(int64(s))
	}
	e.Bool(n.sized)
	e.ID(n.fixChild)
	e.Int(int64(n.fixBase))
	e.Int(int64(n.round))
	e.Bool(n.exhausted)
	e.Bool(n.terminated)
	e.Int(int64(n.swaps))

	e.Int(int64(n.searchPending))
	e.Int(int64(n.agg.k))
	e.ID(n.agg.cand)
	e.ID(n.via)
	e.Int(int64(n.kAll))
	e.Bool(n.xBelow)
	e.Int(int64(n.moved))

	e.Bool(n.fragKnown)
	e.ID(n.frag.owner)
	e.ID(n.frag.root)
	e.Int(int64(n.bfsPending))
	e.Bool(n.hasReport)
	encodeEdgeReport(e, n.report)
	e.ID(n.reportVia)
	e.Bool(n.improved)
	e.Int(int64(n.label))
	e.Int(int64(n.lo))
	e.Int(int64(n.hi))
	e.Int(int64(n.size))

	e.Bool(n.isOwner)
	e.Bool(n.actingRoot)
	e.Int(int64(n.ownerPending))
	e.Bool(n.ownerHasBest)
	encodeEdgeReport(e, n.ownerBest)
	e.ID(n.ownerArrival)
	e.Bool(n.ownerSwapped)
	e.Bool(n.awaitingDone)

	if format == stateFormat {
		n.encodeGrant(e)
	}

	e.Int(int64(len(n.deferred)))
	for _, d := range n.deferred {
		e.ID(d.from)
		e.Msg(d.msg)
	}
}

// encodeGrant writes the Multi-round grant state.
func (n *Node) encodeGrant(e *sim.StateEncoder) {
	e.ID(n.up)
	e.Int(int64(n.halves))
	e.Int(int64(n.claimStep))
	e.ID(n.claim)
	e.IDs(n.relTo)
	e.ID(n.relFrom)
	e.Int(int64(n.relPending))
}

// DecodeState implements sim.StateCodec.
func (n *Node) DecodeState(d *sim.StateDecoder) error {
	f := d.Int()
	if f != stateFormat && f != singleStateFormat && d.Err() == nil {
		return &sim.CheckpointError{Reason: fmt.Sprintf("mdst node state format %d, this binary reads %d", f, stateFormat)}
	}
	n.phase = Mode(d.Int())
	if f == singleStateFormat && n.phase != Single && d.Err() == nil {
		return &sim.CheckpointError{Reason: fmt.Sprintf("mdst node state format %d in a %v round, this binary reads %d", f, n.phase, stateFormat)}
	}
	n.parent = d.ID()
	n.hasParent = d.Bool()
	n.children = d.IDs()
	ns := d.Int()
	if ns != int64(len(n.children)) && d.Err() == nil {
		return &sim.CheckpointError{Reason: fmt.Sprintf("mdst node state has %d subtree sizes for %d children", ns, len(n.children))}
	}
	n.sizes = make([]int, len(n.children))
	for i := range n.sizes {
		n.sizes[i] = int(d.Int())
	}
	n.sized = d.Bool()
	n.fixChild = d.ID()
	n.fixBase = int(d.Int())
	n.round = int(d.Int())
	n.exhausted = d.Bool()
	n.terminated = d.Bool()
	n.swaps = int(d.Int())

	n.searchPending = int(d.Int())
	n.agg.k = int(d.Int())
	n.agg.cand = d.ID()
	n.via = d.ID()
	n.kAll = int(d.Int())
	n.xBelow = d.Bool()
	n.moved = int(d.Int())

	n.fragKnown = d.Bool()
	n.frag.owner = d.ID()
	n.frag.root = d.ID()
	n.bfsPending = int(d.Int())
	n.hasReport = d.Bool()
	n.report = decodeEdgeReport(d)
	n.reportVia = d.ID()
	n.improved = d.Bool()
	n.label = int(d.Int())
	n.lo = int(d.Int())
	n.hi = int(d.Int())
	n.size = int(d.Int())

	n.isOwner = d.Bool()
	n.actingRoot = d.Bool()
	n.ownerPending = int(d.Int())
	n.ownerHasBest = d.Bool()
	n.ownerBest = decodeEdgeReport(d)
	n.ownerArrival = d.ID()
	n.ownerSwapped = d.Bool()
	n.awaitingDone = d.Bool()

	if f == stateFormat && n.grant == nil && d.Err() == nil {
		return &sim.CheckpointError{Reason: "mdst node state of a Multi-round node in a Single-mode run"}
	}
	if n.grant != nil {
		n.resetGrant()
		if f == stateFormat {
			n.decodeGrant(d)
		}
	}

	nd := d.Int()
	if (nd < 0 || nd > 1<<20) && d.Err() == nil {
		return &sim.CheckpointError{Reason: fmt.Sprintf("mdst node state claims %d deferred messages", nd)}
	}
	n.deferred = n.deferred[:0]
	for i := int64(0); i < nd; i++ {
		from := d.ID()
		msg := d.Msg()
		if d.Err() != nil {
			return d.Err()
		}
		n.deferred = append(n.deferred, deferredMsg{from: from, msg: msg})
	}
	return d.Err()
}

// decodeGrant reads the Multi-round grant state.
func (n *Node) decodeGrant(d *sim.StateDecoder) {
	n.up = d.ID()
	n.halves = uint8(d.Int())
	n.claimStep = uint8(d.Int())
	n.claim = d.ID()
	n.relTo = d.IDs()
	n.relFrom = d.ID()
	n.relPending = int(d.Int())
}

func encodeEdgeReport(e *sim.StateEncoder, r edgeReport) {
	e.ID(r.u)
	e.ID(r.v)
	e.Int(int64(r.du))
	e.Int(int64(r.dv))
	e.ID(r.vroot)
}

func decodeEdgeReport(d *sim.StateDecoder) edgeReport {
	return edgeReport{u: d.ID(), v: d.ID(), du: int(d.Int()), dv: int(d.Int()), vroot: d.ID()}
}

var _ sim.StateCodec = (*Node)(nil)
