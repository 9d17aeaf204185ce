package mdst

import (
	"fmt"

	"mdegst/internal/sim"
)

// StateCodec implementation: the improvement protocol supports barrier
// checkpoint/resume (DESIGN.md §8). The walked state is everything Recv
// can have mutated — the tree view, the cross-round flags, the per-round
// search/fragment/owner machinery and the deferred-message list. The
// factory-construction inputs (identity, mode, target) are not walked:
// Resume rebuilds nodes through the same Factory before reading.
//
// One walk writes and reads the fields in one fixed order; the engine's
// trailing-bytes check catches a state that does not fit it. Each state
// opens with stateFormat, so a state written by a binary with another
// field layout is refused, never misread.

// stateFormat numbers the layout below. The first layout had no such word
// and opened with the phase (0 or 1), so its states fail the check too.
// Format 3 added the subtree sizes and labels (DESIGN.md deviation 7),
// format 4 the Multi-round grant state (deviation 4), which a node in a
// Single round kept writing as format 3. Format 5 added the published
// degrees (deviation 8) to every node, and format 6 the part of the
// SearchDegree aggregate a Single round's wave keeps apart (deviation 9),
// so every older format is refused; the phase alone says whether the
// grant state follows.
const (
	stateFormat = 6
	// maxDeferred bounds the deferred-message count a state may claim.
	maxDeferred = 1 << 20
)

// WalkState implements sim.StateCodec.
func (n *Node) WalkState(s *sim.State) {
	format := stateFormat
	sim.Varint(s, &format)
	if s.Reading() && format != stateFormat {
		s.Fail(fmt.Sprintf("mdst format %d, this binary reads %d", format, stateFormat))
	}
	sim.Varint(s, &n.phase)
	if s.Reading() && n.phase != Single && n.phase != Multi {
		s.Fail(fmt.Sprintf("mdst state in a round of phase %d", n.phase))
	}
	sim.Varint(s, &n.parent)
	s.Bool(&n.hasParent)
	s.IDs(&n.children)
	ns := len(n.sizes)
	sim.Varint(s, &ns)
	if s.Reading() && ns != len(n.children) {
		s.Fail(fmt.Sprintf("mdst state has %d subtree sizes for %d children", ns, len(n.children)))
	}
	sim.Each(s, &n.sizes, ns, sim.Varint[int])
	s.Bool(&n.sized)
	sim.Varint(s, &n.fixChild)
	sim.Varint(s, &n.fixBase)
	nb := len(n.belief)
	sim.Varint(s, &nb)
	if s.Reading() && nb != len(n.belief) {
		s.Fail(fmt.Sprintf("mdst state has %d published degrees for %d neighbours", nb, len(n.belief)))
	}
	sim.Each(s, &n.belief, len(n.belief), sim.Varint[int])
	sim.Varint(s, &n.pub)
	s.Bool(&n.known)
	sim.Varint(s, &n.round)
	s.Bool(&n.exhausted)
	s.Bool(&n.terminated)
	sim.Varint(s, &n.swaps)

	sim.Varint(s, &n.searchPending)
	sim.Varint(s, &n.agg.k)
	sim.Varint(s, &n.agg.cand)
	sim.Varint(s, &n.via)
	sim.Varint(s, &n.part.k)
	sim.Varint(s, &n.part.cand)
	sim.Varint(s, &n.kAll)
	s.Bool(&n.xBelow)
	sim.Varint(s, &n.moved)

	s.Bool(&n.fragKnown)
	sim.Varint(s, &n.frag.owner)
	sim.Varint(s, &n.frag.root)
	sim.Varint(s, &n.bfsPending)
	s.Bool(&n.hasReport)
	walkEdgeReport(s, &n.report)
	sim.Varint(s, &n.reportVia)
	s.Bool(&n.improved)
	sim.Varint(s, &n.label)
	sim.Varint(s, &n.lo)
	sim.Varint(s, &n.hi)
	sim.Varint(s, &n.size)

	s.Bool(&n.isOwner)
	s.Bool(&n.actingRoot)
	sim.Varint(s, &n.ownerPending)
	s.Bool(&n.ownerHasBest)
	walkEdgeReport(s, &n.ownerBest)
	sim.Varint(s, &n.ownerArrival)
	s.Bool(&n.ownerSwapped)
	s.Bool(&n.awaitingDone)

	// Only a node in a Multi round has grant state to walk, and only a
	// Multi or Hybrid node can hold it; a read Single-round state leaves
	// it cleared.
	if s.Reading() && n.grant != nil {
		n.resetGrant()
	}
	if n.phase != Single {
		if n.grant == nil {
			s.Fail("mdst state of a Multi-round node in a Single-mode run")
		} else {
			n.walkGrant(s)
		}
	}

	nd := len(n.deferred)
	sim.Varint(s, &nd)
	if s.Reading() && (nd < 0 || nd > maxDeferred) {
		s.Fail(fmt.Sprintf("mdst state claims %d deferred messages", nd))
	}
	sim.Each(s, &n.deferred, nd, func(s *sim.State, d *deferredMsg) {
		sim.Varint(s, &d.from)
		s.Msg(&d.msg)
	})
}

// walkGrant walks the Multi-round grant state.
func (n *Node) walkGrant(s *sim.State) {
	sim.Varint(s, &n.up)
	sim.Varint(s, &n.halves)
	sim.Varint(s, &n.claimStep)
	sim.Varint(s, &n.claim)
	s.IDs(&n.relTo)
	sim.Varint(s, &n.relFrom)
	sim.Varint(s, &n.relPending)
}

func walkEdgeReport(s *sim.State, r *edgeReport) {
	sim.Varint(s, &r.u)
	sim.Varint(s, &r.v)
	sim.Varint(s, &r.du)
	sim.Varint(s, &r.dv)
	sim.Varint(s, &r.vroot)
}

var _ sim.StateCodec = (*Node)(nil)
