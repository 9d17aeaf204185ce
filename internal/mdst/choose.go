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
	if !n.hasReport {
		panic(fmt.Sprintf("mdst: node %d got an update for an edge it did not report", n.id))
	}
	n.exhausted = false
	u, v := n.report.u, n.report.v
	fell, pub := msg.fell, msg.pub
	if msg.first {
		// We are the cut child c and lose the owner. Unless we are u,
		// which gains v in its place, our via child only turns into our
		// parent, so our degree drops by one. Either way the cut edge
		// leaves both its ends' published degrees (DESIGN.md deviation 8):
		// learn the owner's, and pass ours on to it.
		fell = n.id != u && n.degree() == n.kAll-1
		n.belief[neighborIndex(ctx, from)] = msg.pub
		n.loseCutEdge()
		pub = int(n.pub)
	}
	// On every hop after the first, the sender (our former parent) has
	// reversed its pointer and is now our child; on the first hop the
	// sender is the owner that just cut us. From c on, the update gathers
	// the next round's SearchDegree aggregate unless c fell, which the
	// next round's own search handles (DESIGN.md deviation 9).
	in := msg.cycle
	if msg.first {
		in = optAgg{noAgg, n.phase == Single && !fell}
	} else {
		n.fixChild, n.fixBase = from, -n.subtreeSize()
	}
	if n.id == u {
		// "If e is an outgoing edge of x: the node at the next extremity
		// of e becomes the parent of x."
		if !msg.first {
			n.addChild(from, 0)
		}
		n.parent = v
		n.hasParent = true
		sim.Send(ctx, v, newChild(n.round, fell, pub, n.onCycle(from, in, false)))
		return
	}
	// "Else: the identity found in its via variable becomes its parent and
	// the same identity is suppressed from the set of its children."
	via := n.reportVia
	if via == n.id {
		panic(fmt.Sprintf("mdst: node %d is not %d yet has a self via", n.id, u))
	}
	n.removeChild(via) // before adding, so the lists need not grow
	if !msg.first {
		n.addChild(from, 0)
	}
	n.parent = via
	n.hasParent = true
	sim.Send(ctx, via, newUpdate(n.round, false, fell, pub, n.onCycle(from, in, false)))
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
	sim.Send(ctx, n.parent, newRoundDone(n.round, msg.fell, msg.pub, n.onCycle(from, msg.cycle, true)))
}

// onCycle brings this node's SearchDegree aggregate up to the tree its
// round's exchange leaves (DESIGN.md deviation 9) and returns it for the
// next hop of the cycle, or nil when the cycle carries none. in is what
// the cycle gathered so far, from the sender, which is now this node's
// child (on the first hop, at c, it gathered nothing). keep says whether
// part still lies below this node: on v…p it does, while on p…u the
// child holding the report turns into the parent (at p it is c, which
// leaves).
//
// Off the cycle no node changes its degree, flag or subtree, so the
// wave's aggregates stand there. On it every node has just cleared its
// flag, and its own entry can only have risen except at p and c, whose
// old entries never entered an aggregate on the new tree: the owner's
// never does, and c's subtree is gathered afresh from its node up.
func (n *Node) onCycle(from sim.NodeID, in optAgg, keep bool) *degAgg {
	if !in.ok {
		return nil
	}
	if !keep {
		n.part = noAgg
	}
	agg, via := n.search()
	if m := mergeAgg(agg, in.degAgg); m != agg {
		agg, via = m, from
	}
	n.agg, n.via, n.part = agg, via, noAgg
	return &n.agg
}

func (n *Node) onRoundDone(ctx sim.Context, from sim.NodeID, msg mRoundDone) {
	switch {
	case msg.answer:
		n.onAnswer(ctx, from, msg.won)
		return
	case msg.released:
		n.onReleased(ctx, msg.improved)
		return
	}
	n.exhausted = false
	n.fixChild, n.fixBase = from, n.sizes[n.childIndex(from)]
	if n.isOwner && n.awaitingDone {
		n.awaitingDone = false
		n.belief[neighborIndex(ctx, n.ownerArrival)] = msg.pub
		n.onCycle(from, msg.cycle, false)
		n.settle(ctx, msg.fell)
		return
	}
	if !n.hasParent {
		panic(fmt.Sprintf("mdst: root %d received round-done it was not awaiting", n.id))
	}
	sim.Send(ctx, n.parent, newRoundDone(n.round, msg.fell, msg.pub, n.onCycle(from, msg.cycle, true)))
}

// Multi-round grants (DESIGN.md deviation 4). Every owner proposes its
// best edge; a contested endpoint goes to the smallest proposing owner,
// and an owner exchanges only if it wins both endpoints. The endpoints of
// an owner w's edge lie in w's child fragments or in w's parent fragment
// P. Every claim on a node of P comes from P's owner or from an owner
// hanging from P, one whose parent is in P, and those all claim before P
// reports to its owner: each registers its claim at both endpoints before
// it reports upward. So once P's owner has registered its own claim, every
// claim on P's nodes is in. The owner then releases P's claimers, each of
// which asks its endpoints whether it won and exchanges if it did. Each
// release is acknowledged once the released subtree settled, so an owner
// still reports upward (or starts the next round) only after every
// exchange below it. An owner whose endpoints no claim can reach exchanges
// at once, as in a Single round, which keeps the traffic of rounds without
// parent fragments unchanged.

// Where an owner's claim stands.
const (
	claimNone     uint8 = iota
	claimRegister       // registering a claim through the parent fragment
	claimHeld           // registered; waits for the parent fragment's release
	claimQuery          // released; asking whether it won
	claimCheck          // registering and deciding at once (endpoints in its fragments)
)

// release sends a release to every child that reported a claimer below it.
func (n *Node) release(ctx sim.Context) {
	if n.grant == nil {
		return
	}
	n.relPending = len(n.relTo)
	for _, c := range n.relTo {
		sim.Send(ctx, c, newRelease(n.round))
	}
}

// onRelease passes a release on toward the claimers below; a claimer asks
// its endpoints whether it won.
func (n *Node) onRelease(ctx sim.Context, from sim.NodeID) {
	n.relFrom = from
	if n.isOwner {
		n.claimStep = claimQuery
		n.awaitingDone = true
		sim.Send(ctx, n.ownerArrival, newClaim(n.round, n.ownerBest.u, n.id, updQuery))
		return
	}
	n.release(ctx)
}

// onReleased counts one released subtree as settled.
func (n *Node) onReleased(ctx sim.Context, improved bool) {
	n.improved = n.improved || improved
	n.relPending--
	if n.relPending > 0 {
		return
	}
	if n.isOwner {
		n.settle(ctx, false)
		return
	}
	sim.Send(ctx, n.relFrom, newReleased(n.round, n.improved))
}

// settle concludes an owner's round once its exchange and every release
// it sent are acknowledged (a Single round sends none): a released
// claimer acknowledges its own release, any other owner finishes.
func (n *Node) settle(ctx sim.Context, fell bool) {
	if n.grant != nil {
		if n.awaitingDone || n.relPending > 0 || n.claimStep == claimRegister || n.claimStep == claimHeld {
			return
		}
		if n.claimStep == claimQuery {
			sim.Send(ctx, n.relFrom, newReleased(n.round, n.ownerSwapped || n.improved))
			return
		}
	}
	n.finishOwner(ctx, fell)
}

// onClaim carries a claim down the via chain to u, which registers it and
// passes it to v over the edge; v registers it in turn and answers.
func (n *Node) onClaim(ctx sim.Context, from sim.NodeID, msg mUpdate) {
	owner := msg.v
	query := int64(0)
	if msg.query {
		query = updQuery
	}
	switch {
	case from == msg.u: // v
		n.register(owner)
		won := msg.query && msg.uWon && n.claim == owner
		if won {
			n.addChild(msg.u, 0)
		}
		sim.Send(ctx, from, newAnswer(n.round, won))
	case n.id == msg.u:
		n.register(owner)
		sim.Send(ctx, n.report.v, newClaim(n.round, msg.u, owner, query|sim.B2W(n.claim == owner)*updUWon))
	default:
		if !n.hasReport || n.report.u != msg.u || n.reportVia == n.id {
			panic(fmt.Sprintf("mdst: node %d got a claim on an edge at %d it did not report", n.id, msg.u))
		}
		sim.Send(ctx, n.reportVia, newClaim(n.round, msg.u, owner, query))
	}
}

// register records owner as a claimer of this node.
func (n *Node) register(owner sim.NodeID) {
	if n.claim == noCand || owner < n.claim {
		n.claim = owner
	}
}

// onAnswer carries v's answer from u up the via chain to the claiming
// owner. If the owner won, v has taken u as its child, and the answer
// reverses the path on its way: each node hangs from the sender and takes
// its old parent as a child, except the cut child c, whose old parent is
// the owner; the owner loses c. At the owner the answer completes the
// claim.
func (n *Node) onAnswer(ctx sim.Context, from sim.NodeID, won bool) {
	if !n.isOwner {
		old := n.parent
		if won {
			if n.reportVia != n.id { // u's sender is v, not a child
				n.removeChild(from) // before adding, so the lists need not grow
			}
			if n.frag.root != n.id {
				n.addChild(old, 0)
			}
			n.parent = from
		}
		sim.Send(ctx, old, newAnswer(n.round, won))
		return
	}
	if won {
		n.removeChild(n.ownerArrival)
		n.ownerSwapped = true
		n.swaps++
	}
	switch n.claimStep {
	case claimRegister:
		// Registered: release the claimers below, whose endpoints now
		// hold every claim, and report to the parent fragment.
		n.claimStep = claimHeld
		n.release(ctx)
		n.sendBack(ctx, false, n.improved, true)
	case claimCheck:
		n.awaitingDone = false
		n.release(ctx)
		n.settle(ctx, false)
	default: // claimQuery
		n.awaitingDone = false
		n.settle(ctx, false)
	}
}
