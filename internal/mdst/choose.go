package mdst

import (
	"fmt"

	"mdegst/internal/sim"
)

// Exchange application: Update travels the via chain reversing the path,
// Child performs the reattachment, RoundDone tells the owner (paper §3.2.5).
// Together they visit exactly the new tree path from the owner p to the cut
// child c, the exchange's cycle: every node on it handles one of the three
// and clears its exhausted flag there (DESIGN.md deviation 1).
//
// The same nodes keep the subtree sizes exact (deviation 7). Let S be the
// size of c's old subtree, the part that moves. A node on the reversed
// path c…u gains its old parent as a child, of size S minus its own old
// size; v gains u, of size S; and every node on v…p sees its child toward
// v grow by S. Only the owner knows S, so each node leaves that child's
// size pending until the next start delivers S.

func (n *Node) onUpdate(ctx sim.Context, from sim.NodeID, msg mUpdate) {
	n.exhausted = false
	fell := msg.fell
	if msg.first {
		// We are the cut child c and lose the owner. Unless we are u,
		// which gains v in its place, our via child only turns into our
		// parent, so our degree drops by one.
		fell = n.id != msg.u && n.degree() == n.kAll-1
	}
	// On every hop after the first, the sender (our former parent) has
	// reversed its pointer and is now our child; on the first hop the
	// sender is the owner that just cut us.
	if !msg.first {
		n.fixChild, n.fixBase = from, -n.subtreeSize()
	}
	if n.id == msg.u {
		// "If e is an outgoing edge of x: the node at the next extremity
		// of e becomes the parent of x."
		if !msg.first {
			n.addChild(from, 0)
		}
		n.parent = msg.v
		n.hasParent = true
		ctx.Send(msg.v, newChild(n.round, fell))
		return
	}
	// "Else: the identity found in its via variable becomes its parent and
	// the same identity is suppressed from the set of its children."
	if !n.hasReport || n.report.u != msg.u || n.report.v != msg.v {
		panic(fmt.Sprintf("mdst: node %d got update for edge (%d,%d) it did not report", n.id, msg.u, msg.v))
	}
	via := n.reportVia
	if via == n.id {
		panic(fmt.Sprintf("mdst: node %d is not %d yet has a self via", n.id, msg.u))
	}
	n.removeChild(via) // before adding, so the lists need not grow
	if !msg.first {
		n.addChild(from, 0)
	}
	n.parent = via
	n.hasParent = true
	ctx.Send(via, newUpdate(n.round, msg.u, msg.v, false, fell))
}

func (n *Node) onChild(ctx sim.Context, from sim.NodeID, msg mChild) {
	// "Upon receipt of the child message from x, the node y adds x to its
	// children set." The round is complete; tell the waiting owner.
	n.exhausted = false
	n.fixChild, n.fixBase = from, 0
	n.addChild(from, 0)
	if !n.hasParent {
		panic(fmt.Sprintf("mdst: reattachment endpoint %d has no parent", n.id))
	}
	ctx.Send(n.parent, newRoundDone(n.round, msg.fell))
}

func (n *Node) onRoundDone(ctx sim.Context, from sim.NodeID, msg mRoundDone) {
	n.exhausted = false
	n.fixChild, n.fixBase = from, n.sizes[n.childIndex(from)]
	if n.isOwner && n.awaitingDone {
		n.awaitingDone = false
		n.finishOwner(ctx, msg.fell)
		return
	}
	if !n.hasParent {
		panic(fmt.Sprintf("mdst: root %d received round-done it was not awaiting", n.id))
	}
	ctx.Send(n.parent, newRoundDone(n.round, msg.fell))
}
