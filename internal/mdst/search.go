package mdst

import (
	"fmt"
	"slices"

	"mdegst/internal/sim"
)

// SearchDegree and MoveRoot (paper §3.2.1, §3.2.2).

// startRound begins a round at this node: the tree root calls it directly,
// every other node on mStart. It forwards mStart down the tree and starts
// the SearchDegree convergecast (see mStart for the fields), unless the
// previous round found the round's owner already (DESIGN.md deviation 9):
// a Single round after a Single round whose exchange, if any, did not
// make c fall. Then the root decides at once.
func (n *Node) startRound(ctx sim.Context, s mStart) {
	fell := noCand
	if s.fell {
		fell = s.cut
	}
	fused := s.phase == Single && n.sized && !s.fell
	inX := n.inX(ctx, fell) // before resetRound: reads last round's kAll
	if n.fixChild != noCand {
		if n.sized {
			n.sizes[n.childIndex(n.fixChild)] = s.moved + n.fixBase
		}
		n.fixChild = noCand
	}
	n.round = s.round
	n.phase = s.phase
	n.publish(ctx, s.cut, s.owner)
	n.resetRound()
	n.xBelow = inX
	for _, c := range n.children {
		putStart(ctx.Out(c), &s)
	}
	if fused {
		if !n.hasParent {
			n.decide(ctx)
		}
		return
	}
	n.resetSearch()
	n.searchPending = len(n.children)
	if n.searchPending == 0 {
		// A leaf reports at once: "every leaf of the ST sends a message
		// with its degree".
		n.reportDegree(ctx)
	}
}

// publish brings the published degrees up to the round (DESIGN.md
// deviation 8). A Single round that follows a Single round knows them: it
// lowers the beliefs in the cut edge's two ends, which lowered their own
// pub at the exchange and passed it to each other over the cut edge. Any
// other Single round is a full one, which publishes the true degree and
// learns the neighbours' from the wave. Multi rounds publish nothing.
func (n *Node) publish(ctx sim.Context, cut, owner sim.NodeID) {
	n.known = n.phase == Single && n.sized
	switch {
	case n.phase != Single:
		n.pub = 0
	case !n.known:
		n.pub = int32(n.degree())
	case n.id != cut && n.id != owner:
		for _, w := range [2]sim.NodeID{cut, owner} {
			if i, ok := slices.BinarySearch(ctx.Neighbors(), w); ok {
				n.belief[i]--
			}
		}
	}
}

// loseCutEdge lowers the published degree of an end of a Single round's
// cut edge, which this node just lost; its neighbours follow at the next
// start.
func (n *Node) loseCutEdge() {
	if n.phase == Single {
		n.pub--
		n.known = false
	}
}

// inX reports whether this node is in X: a non-tree neighbour of the
// fallen child c whose degree is at most k-2, k being the maximum degree
// of the round that just ended (still held in kAll, which every node
// learns in a Single round).
func (n *Node) inX(ctx sim.Context, c sim.NodeID) bool {
	if c == noCand || n.degree() > n.kAll-2 || (n.hasParent && n.parent == c) {
		return false
	}
	if _, child := slices.BinarySearch(n.children, c); child {
		return false
	}
	_, nbr := slices.BinarySearch(ctx.Neighbors(), c)
	return nbr
}

func (n *Node) onStart(ctx sim.Context, from sim.NodeID, msg mStart) {
	if msg.round != n.round+1 {
		panic(fmt.Sprintf("mdst: node %d in round %d got start of round %d", n.id, n.round, msg.round))
	}
	n.startRound(ctx, msg)
}

func (n *Node) onDeg(ctx sim.Context, from sim.NodeID, msg mDeg) {
	n.take(from, degAgg{k: msg.k, cand: msg.cand})
	n.xBelow = n.xBelow || msg.xBelow
	n.searchPending--
	if n.searchPending == 0 {
		n.reportDegree(ctx)
	}
}

// reportDegree completes this node's SearchDegree entry once its whole
// subtree reported. A node with a member x of X at or below it lies on the
// tree path from the fallen child to x or on the exchange's cycle, so it
// loses its exhausted flag before its own entry joins the aggregate. The
// aggregate then goes to the parent, or at the root decides the round.
func (n *Node) reportDegree(ctx sim.Context) {
	if n.xBelow {
		n.exhausted = false
	}
	n.take(n.id, n.ownContribution())
	if n.hasParent {
		putDeg(ctx.Out(n.parent), n.round, n.agg.k, n.agg.cand, n.xBelow)
		return
	}
	n.decide(ctx)
}

// decide runs at the root once it knows the whole tree's aggregate:
// terminate, act as owner, or move the root toward the chosen
// maximum-degree node.
func (n *Node) decide(ctx sim.Context) {
	agg, via := n.search()
	n.kAll = agg.k
	// "until no improvement is found or k = 2 (the tree is a chain)" —
	// or the caller's degree target is met.
	if n.kAll <= n.stopDegree() {
		n.terminate(ctx)
		return
	}
	if agg.cand == noCand {
		// Single mode: every maximum-degree node is exhausted — the tree
		// is locally optimal for all of them.
		n.terminate(ctx)
		return
	}
	if agg.cand == n.id {
		n.becomeOwner(ctx, n.kAll)
		return
	}
	// MoveRoot with path reversal: "Neighbour via becomes the parent".
	target := agg.cand
	if via == n.id {
		panic(fmt.Sprintf("mdst: root %d has no via toward target %d", n.id, target))
	}
	size := n.subtreeSize()
	n.removeChild(via)
	n.parent = via
	n.hasParent = true
	sim.Send(ctx, via, newMove(n.round, n.kAll, target, size))
}

func (n *Node) onMove(ctx sim.Context, from sim.NodeID, msg mMove) {
	if !n.hasParent || n.parent != from {
		panic(fmt.Sprintf("mdst: node %d got move from non-parent %d", n.id, from))
	}
	// The sender reversed its pointer: it is now our child, holding every
	// node outside our old subtree.
	size := msg.n - n.subtreeSize()
	n.kAll = msg.k
	if msg.target == n.id {
		n.addChild(from, size)
		n.hasParent = false
		n.becomeOwner(ctx, msg.k)
		return
	}
	_, via := n.search()
	if via == n.id {
		panic(fmt.Sprintf("mdst: node %d has no via toward target %d", n.id, msg.target))
	}
	n.removeChild(via) // before adding, so the lists need not grow
	n.addChild(from, size)
	n.parent = via
	sim.Send(ctx, via, newMove(n.round, msg.k, msg.target, msg.n))
}

// terminate broadcasts mTerm: the algorithm is finished and every node
// learns it (termination by process).
func (n *Node) terminate(ctx sim.Context) {
	n.terminated = true
	for _, c := range n.children {
		sim.Send(ctx, c, newTerm(n.round))
	}
}

func (n *Node) onTerm(ctx sim.Context, msg mTerm) {
	n.terminated = true
	for _, c := range n.children {
		sim.Send(ctx, c, newTerm(n.round))
	}
}
