package mdst

import (
	"fmt"

	"mdegst/internal/sim"
)

// Cut, BFS wave and BFSBack aggregation (paper §3.2.3–3.2.5, §3.2.6).

// becomeOwner turns this node into an owner for the round: the acting root
// after MoveRoot, or in Multi mode any maximum-degree node reached by the
// wave. The owner virtually cuts its children, making each a fragment root.
func (n *Node) becomeOwner(ctx sim.Context, k int) {
	n.isOwner = true
	n.actingRoot = !n.hasParent
	n.kAll = k
	n.ownerPending = len(n.children)
	for _, c := range n.children {
		ctx.Send(c, newCut(n.round, k, n.id))
	}
	if n.ownerPending == 0 {
		n.ownerComplete(ctx)
	}
}

func (n *Node) onCut(ctx sim.Context, from sim.NodeID, msg mCut) {
	if !n.hasParent || n.parent != from {
		panic(fmt.Sprintf("mdst: node %d got cut from non-parent %d", n.id, from))
	}
	n.kAll = msg.k
	if n.phase == Multi && n.degree() == msg.k {
		// §3.2.6: a maximum-degree node met by the wave behaves like a root.
		n.becomeOwner(ctx, msg.k)
		return
	}
	// This node becomes the root of a fragment named (owner, self).
	n.enterFragment(ctx, fragID{owner: msg.owner, root: n.id})
}

// enterFragment adopts a fragment identity and broadcasts the BFS wave to
// every neighbour except the tree parent.
func (n *Node) enterFragment(ctx sim.Context, f fragID) {
	n.fragKnown = true
	n.frag = f
	n.bfsPending = 0
	m := newBFS(n.round, n.kAll, f.owner, f.root)
	for _, w := range ctx.Neighbors() {
		if n.hasParent && w == n.parent {
			continue
		}
		n.bfsPending++
		ctx.Send(w, m)
	}
	if n.bfsPending == 0 {
		n.sendAggregate(ctx)
	}
}

// onBFS handles the wave. From the parent it spreads the fragment identity;
// from anyone else it is a probe over a non-tree edge, answered according to
// the paper's fragment-identity comparison. It returns false to defer the
// probe until this node knows its own fragment.
func (n *Node) onBFS(ctx sim.Context, from sim.NodeID, msg mBFS) bool {
	if n.hasParent && from == n.parent {
		n.kAll = msg.k
		if n.phase == Multi && n.degree() == msg.k {
			n.becomeOwner(ctx, msg.k)
			return true
		}
		n.enterFragment(ctx, fragID{owner: msg.owner, root: msg.fragRoot})
		return true
	}
	// Probe over a non-tree edge.
	if n.isOwner {
		// Owners answer immediately: their degree k disqualifies the edge,
		// but the answer unblocks the prober's count.
		ctx.Send(from, newCousin(n.round, n.degree(), n.id, n.id))
		return true
	}
	if !n.fragKnown {
		// "the answer has to be delayed until x learns its fragment
		// identity" (paper, first case).
		return false
	}
	theirs := fragID{owner: msg.owner, root: msg.fragRoot}
	switch {
	case theirs == n.frag:
		// Same fragment: both endpoints resolve the edge silently.
		n.resolveNeighbor(ctx)
	case theirs.less(n.frag):
		// "(r,r') < (p,p'): x replies by a BFSBack" — the probing side
		// records the cousin edge; we only resolve.
		ctx.Send(from, newCousin(n.round, n.degree(), n.frag.owner, n.frag.root))
		n.resolveNeighbor(ctx)
	default:
		// "(r,r') > (p,p')": our own BFS to that neighbour will be
		// answered instead; nothing to do (paper, third case).
	}
	return true
}

// onCousin records an outgoing edge discovered by our probe, subject to the
// paper's filters: both endpoints must have tree degree at most k-2
// ("nodes of degree k-1 cannot be considered"), and in Multi mode the edge
// must connect two fragments of the same owner so the exchange is verifiably
// cycle-free (DESIGN.md deviation 4).
func (n *Node) onCousin(ctx sim.Context, from sim.NodeID, msg mCousin) {
	if !n.fragKnown {
		panic(fmt.Sprintf("mdst: node %d got cousin answer without fragment", n.id))
	}
	usable := n.degree() <= n.kAll-2 && msg.deg <= n.kAll-2
	if usable {
		theirs := fragID{owner: msg.owner, root: msg.fragRoot}
		if theirs == n.frag {
			usable = false
		} else if n.phase == Multi && msg.owner != n.frag.owner {
			usable = false
		}
	}
	if usable {
		rep := edgeReport{u: n.id, v: from, du: n.degree(), dv: msg.deg, vroot: msg.fragRoot}
		if !n.hasReport || rep.better(n.report) {
			n.hasReport = true
			n.report = rep
			n.reportVia = n.id
		}
	}
	n.resolveNeighbor(ctx)
}

// onBFSBack merges a child's aggregate. At a fragment member it folds into
// the member's own aggregate; at an owner it feeds the Choose step.
func (n *Node) onBFSBack(ctx sim.Context, from sim.NodeID, msg mBFSBack) {
	if n.isOwner {
		n.ownerPending--
		n.improved = n.improved || msg.improved
		if msg.hasReport {
			if !n.ownerHasBest || msg.report.better(n.ownerBest) {
				n.ownerHasBest = true
				n.ownerBest = msg.report
				n.ownerArrival = from
			}
		}
		if n.ownerPending == 0 {
			n.ownerComplete(ctx)
		}
		return
	}
	n.improved = n.improved || msg.improved
	if msg.hasReport {
		if !n.hasReport || msg.report.better(n.report) {
			n.hasReport = true
			n.report = msg.report
			n.reportVia = from
		}
	}
	n.resolveNeighbor(ctx)
}

// resolveNeighbor decrements the member's outstanding-answer count; when all
// neighbours are accounted for the member reports to its parent ("when a
// node x received an answer from all its neighbours").
func (n *Node) resolveNeighbor(ctx sim.Context) {
	n.bfsPending--
	if n.bfsPending > 0 {
		return
	}
	if n.bfsPending < 0 {
		panic(fmt.Sprintf("mdst: node %d over-resolved its BFS wave", n.id))
	}
	n.sendAggregate(ctx)
}

func (n *Node) sendAggregate(ctx sim.Context) {
	if !n.hasParent {
		panic(fmt.Sprintf("mdst: fragment member %d has no parent", n.id))
	}
	ctx.Send(n.parent, newBFSBack(n.round, n.hasReport, n.report, n.improved))
}

// ownerComplete runs the paper's Choose step once every fragment answered:
// apply the best exchange if one exists, otherwise conclude the round for
// this owner.
func (n *Node) ownerComplete(ctx sim.Context) {
	if n.ownerHasBest {
		// "The child which sent the best outgoing edge will be suppressed
		// from the children set" — the cut half of the exchange.
		n.removeChild(n.ownerArrival)
		n.ownerSwapped = true
		n.swaps++
		n.awaitingDone = true
		ctx.Send(n.ownerArrival, newUpdate(n.round, n.ownerBest.u, n.ownerBest.v, true, false))
		return
	}
	if n.actingRoot && n.phase == Single {
		// "If there is no more outgoing edge ... the maximum degree cannot
		// be (locally) improved": remember it and let SearchDegree pick
		// the next candidate (or terminate).
		n.exhausted = true
	}
	n.finishOwner(ctx, false)
}

// finishOwner concludes the round at this owner after its exchange (if any)
// was acknowledged; fell reports that the cut child's degree fell to k-2.
func (n *Node) finishOwner(ctx sim.Context, fell bool) {
	if !n.actingRoot {
		// Sub-owner (Multi): report upward; no outgoing edge is forwarded
		// (see DESIGN.md deviation 4), only the improvement flag.
		ctx.Send(n.parent, newBFSBack(n.round, false, edgeReport{}, n.ownerSwapped || n.improved))
		return
	}
	// Acting root: decide what the next round is.
	switch n.phase {
	case Single:
		c := noCand
		if fell {
			c = n.ownerArrival
		}
		n.startRound(ctx, n.round+1, c)
	case Multi:
		// Multi rounds set no exhausted flags, so there is none to clear.
		if n.ownerSwapped || n.improved {
			n.startRound(ctx, n.round+1, noCand)
			return
		}
		if n.mode == Hybrid {
			// Multi rounds stalled: continue with Single rounds until
			// full local optimality.
			n.phase = Single
			n.startRound(ctx, n.round+1, noCand)
			return
		}
		// No exchange anywhere: locally optimal tree.
		n.terminate(ctx)
	}
}
