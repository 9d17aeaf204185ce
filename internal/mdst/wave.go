package mdst

import (
	"fmt"
	"math"
	"slices"

	"mdegst/internal/sim"
)

// Cut, BFS wave and BFSBack aggregation (paper §3.2.3–3.2.5, §3.2.6).

// becomeOwner turns this node into an owner for the round: the acting root
// after MoveRoot, or in Multi mode any maximum-degree node reached by the
// wave. The owner virtually cuts its children, making each a fragment root.
// An acting root whose sizes are exact labels the tree in pre-order from
// itself (DESIGN.md deviation 7); sub-owners, which only exist in Multi
// rounds, never are. In a Multi round the cut names the owner's parent
// fragment instead (deviation 4).
func (n *Node) becomeOwner(ctx sim.Context, k int) {
	n.resetSearch()
	n.isOwner = true
	n.actingRoot = !n.hasParent
	n.kAll = k
	n.ownerPending = len(n.children)
	if n.sized {
		n.label = 0
	}
	next := n.label + 1
	for i, c := range n.children {
		word := noLabel
		switch {
		case n.sized:
			word = next
			next += n.sizes[i]
		case n.phase == Multi:
			word = int(n.up)
		}
		sim.Send(ctx, c, newCut(n.round, k, n.id, word))
	}
	if n.ownerPending == 0 {
		n.ownerComplete(ctx)
	}
}

// onCut handles the owner's cut and, in a Multi round, the two records
// that carry a fragment's wave below its root when the owner has a parent
// fragment: the relayed cut, which names an owner other than its sender,
// and the short cut with the fragment root. They may arrive in either
// order; the node joins the fragment once it holds both.
func (n *Node) onCut(ctx sim.Context, from sim.NodeID, msg mCut) {
	if !n.hasParent || n.parent != from {
		panic(fmt.Sprintf("mdst: node %d got cut from non-parent %d", n.id, from))
	}
	if msg.root != noCand || msg.owner != from {
		if msg.root != noCand {
			n.frag.root = msg.root
		} else {
			n.kAll, n.frag.owner, n.up = msg.k, msg.owner, sim.NodeID(msg.label)
		}
		if n.halves++; n.halves == 2 {
			n.joinMulti(ctx)
		}
		return
	}
	n.kAll = msg.k
	if n.phase == Multi && n.degree() == msg.k {
		// §3.2.6: a maximum-degree node met by the wave behaves like a
		// root. Its parent is an owner, so it has no parent fragment.
		n.becomeOwner(ctx, msg.k)
		return
	}
	// This node becomes the root of a fragment named (owner, self).
	owner, label := msg.owner, msg.label
	if n.phase == Single {
		owner = singleOwner
	} else {
		n.up, label = sim.NodeID(label), noLabel
	}
	n.enterFragment(ctx, fragID{owner: owner, root: n.id}, label)
}

// joinMulti joins the fragment n.frag (with n.up) that the parent's wave
// record named in a Multi round; a maximum-degree node becomes an owner
// instead, whose parent fragment is the one its parent belongs to.
func (n *Node) joinMulti(ctx sim.Context) {
	if n.degree() == n.kAll {
		n.up = n.frag.root
		n.frag = fragID{}
		n.becomeOwner(ctx, n.kAll)
		return
	}
	n.enterFragment(ctx, n.frag, noLabel)
}

// enterFragment adopts a fragment identity and pre-order label and
// broadcasts the BFS wave to every neighbour except the tree parent. In a
// Single round each child's record carries the child's label and each
// probe the sender's, or noLabel when its degree exceeds k-2. Every probe
// carries the sender's degree in place of k. When the owner has a parent
// fragment, a Multi round's child gets a relayed cut and a short cut in
// place of the bfs (DESIGN.md deviation 4).
//
// A Single round that knows the published degrees probes a non-tree edge
// only when both ends publish at most k-2 (deviation 8); both ends decide
// alike, so neither waits for the other over a skipped edge.
//
// With a label, a maximum-degree member decides its exhausted flag in the
// wave (deviation 7): it counts as exhausted until some child's answer
// shows a qualifying edge leaving that child's subtree (see childAnswered).
func (n *Node) enterFragment(ctx sim.Context, f fragID, label int) {
	if label != noLabel && !n.sized {
		panic(fmt.Sprintf("mdst: node %d got label %d without subtree sizes", n.id, label))
	}
	n.fragKnown = true
	n.frag = f
	n.label = label
	n.bfsPending = 0
	n.resetSearch()
	n.reportVia = n.id
	deg := n.degree()
	if label != noLabel && deg == n.kAll {
		n.exhausted = true
	}
	word := int64(f.owner)
	if n.phase == Single {
		word = noLabel
		if deg <= n.kAll-2 {
			word = int64(label)
		}
	}
	// Knowing the published degrees, probe only edges whose far end
	// publishes at most lim.
	lim := n.kAll - 2
	if int(n.pub) > lim {
		lim = math.MinInt
	}
	next, ci := label+1, 0
	for i, w := range ctx.Neighbors() {
		if n.hasParent && w == n.parent {
			continue
		}
		if ci < len(n.children) && n.children[ci] == w {
			n.bfsPending++
			switch {
			case n.phase == Multi && n.up != noCand:
				sim.Send(ctx, w, newCut(n.round, n.kAll, f.owner, int(n.up)))
				sim.Send(ctx, w, newCutRoot(n.round, f.root))
			case label != noLabel:
				putBFS(ctx.Out(w), n.round, n.kAll, int64(next), f.root)
				next += n.sizes[ci]
			default:
				putBFS(ctx.Out(w), n.round, n.kAll, word, f.root)
			}
			ci++
			continue
		}
		if n.known && n.belief[i] > lim {
			continue
		}
		n.bfsPending++
		putBFS(ctx.Out(w), n.round, deg, word, f.root)
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
	owner, label := msg.fields(n.phase)
	if n.hasParent && from == n.parent {
		n.kAll = msg.k
		if n.phase == Multi {
			n.frag = fragID{owner: owner, root: msg.fragRoot}
			n.joinMulti(ctx)
			return true
		}
		n.enterFragment(ctx, fragID{owner: owner, root: msg.fragRoot}, label)
		return true
	}
	// Probe over a non-tree edge.
	if n.isOwner {
		// Owners answer immediately: their degree k disqualifies the edge,
		// but the answer unblocks the prober's count.
		if n.phase == Single && !n.known {
			n.belief[neighborIndex(ctx, from)] = msg.k // a full round (deviation 8)
		}
		putCousin(ctx.Out(from), n.round, n.degree(), n.id, n.id)
		return true
	}
	if !n.fragKnown {
		// "the answer has to be delayed until x learns its fragment
		// identity" (paper, first case).
		return false
	}
	if n.phase == Single && !n.known {
		// A full round: learn the prober's published degree (deviation 8).
		n.belief[neighborIndex(ctx, from)] = msg.k
	}
	if label != noLabel && n.degree() <= n.kAll-2 {
		// A qualifying edge: record where its far end lies (deviation 7).
		n.lo, n.hi = min(n.lo, label), max(n.hi, label)
	}
	theirs := fragID{owner: owner, root: msg.fragRoot}
	switch {
	case theirs == n.frag:
		// Same fragment: both endpoints resolve the edge silently.
		n.resolveNeighbor(ctx)
	case theirs.less(n.frag):
		// "(r,r') < (p,p'): x replies by a BFSBack" — the probing side
		// records the cousin edge; we only resolve. An edge into our
		// owner's parent fragment is ours to record (deviation 4), from
		// the degree the Multi-round probe carries.
		if n.phase == Multi && msg.fragRoot == n.up {
			n.record(from, msg.k, msg.fragRoot)
		}
		putCousin(ctx.Out(from), n.round, n.degree(), n.frag.owner, n.frag.root)
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
// must connect two fragments of the same owner, or lead into the owner's
// parent fragment, so that the exchange's cycle holds one maximum-degree
// node, the owner (DESIGN.md deviation 4).
func (n *Node) onCousin(ctx sim.Context, from sim.NodeID, msg mCousin) {
	if !n.fragKnown {
		panic(fmt.Sprintf("mdst: node %d got cousin answer without fragment", n.id))
	}
	if n.phase == Single && !n.known {
		n.belief[neighborIndex(ctx, from)] = msg.deg
	}
	theirs := fragID{owner: msg.owner, root: msg.fragRoot}
	if theirs != n.frag && (n.phase == Single || msg.owner == n.frag.owner || msg.fragRoot == n.up) {
		n.record(from, msg.deg, msg.fragRoot)
	}
	n.resolveNeighbor(ctx)
}

// record keeps the edge to neighbour v, of degree dv in the fragment rooted
// at vroot, as this node's report if both endpoints have degree at most
// k-2 and it beats the report so far.
func (n *Node) record(v sim.NodeID, dv int, vroot sim.NodeID) {
	if n.degree() > n.kAll-2 || dv > n.kAll-2 {
		return
	}
	rep := edgeReport{u: n.id, v: v, du: n.degree(), dv: dv, vroot: vroot}
	if !n.hasReport || rep.better(n.report) {
		// The report moves to this node, whose own entry search adds.
		n.gather(n.id, n.reportVia, true, noAgg)
		n.hasReport = true
		n.report = rep
		n.reportVia = n.id
	}
}

// onBFSBack merges a child's aggregate. At a fragment member it folds into
// the member's own aggregate; at an owner it feeds the Choose step.
func (n *Node) onBFSBack(ctx sim.Context, from sim.NodeID, msg *mBFSBack) {
	n.size += msg.size
	if n.phase == Single {
		n.childAnswered(from, msg)
	}
	if msg.claimer {
		n.relTo = append(n.relTo, from)
	}
	n.improved = n.improved || msg.improved
	if n.isOwner {
		n.ownerPending--
		best := msg.hasReport && (!n.ownerHasBest || msg.report.better(n.ownerBest))
		if msg.search.ok {
			n.gather(from, n.ownerArrival, best, msg.search.degAgg)
		}
		if best {
			n.ownerHasBest = true
			n.ownerBest = msg.report
			n.ownerArrival = from
		}
		if n.ownerPending == 0 {
			n.ownerComplete(ctx)
		}
		return
	}
	n.lo, n.hi = min(n.lo, msg.lo), max(n.hi, msg.hi)
	best := msg.hasReport && (!n.hasReport || msg.report.better(n.report))
	if msg.search.ok {
		n.gather(from, n.reportVia, best, msg.search.degAgg)
	}
	if best {
		n.hasReport = true
		n.report = msg.report
		n.reportVia = from
	}
	n.resolveNeighbor(ctx)
}

// childAnswered records the subtree size a child reported in a Single
// round (Multi rounds keep no sizes). A labelled maximum-degree member is
// eligible once some child c shows a qualifying edge leaving c's subtree:
// a label outside c's interval, or an edge report, which in a Single
// round is a qualifying edge to another fragment (DESIGN.md deviation 7).
func (n *Node) childAnswered(c sim.NodeID, msg *mBFSBack) {
	i := n.childIndex(c)
	if n.label != noLabel {
		if msg.size != n.sizes[i] {
			panic(fmt.Sprintf("mdst: node %d labelled child %d for size %d, which reported %d", n.id, c, n.sizes[i], msg.size))
		}
		if !n.isOwner && n.degree() == n.kAll {
			first := n.label + 1
			for _, s := range n.sizes[:i] {
				first += s
			}
			if msg.hasReport || msg.lo < first || msg.hi >= first+n.sizes[i] {
				n.exhausted = false
			}
		}
	}
	n.sizes[i] = msg.size
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

// sendAggregate reports the member's subtree to its parent. Its children
// have all answered, so its sizes are now exact if the round is Single.
func (n *Node) sendAggregate(ctx sim.Context) {
	if !n.hasParent {
		panic(fmt.Sprintf("mdst: fragment member %d has no parent", n.id))
	}
	n.sized = n.phase == Single
	n.sendBack(ctx, n.hasReport, n.improved, n.grant != nil && len(n.relTo) > 0)
}

// sendBack sends this node's bfsback to its parent. In a Single round it
// carries the subtree's SearchDegree aggregate (DESIGN.md deviation 9).
func (n *Node) sendBack(ctx sim.Context, hasReport, improved, claimer bool) {
	var report *edgeReport
	if hasReport {
		report = &n.report
	}
	var search *degAgg
	if n.phase == Single {
		agg, _ := n.search()
		search = &agg
	}
	putBFSBack(ctx.Out(n.parent), n.round, improved, claimer, n.size, n.lo, n.hi, report, search)
}

// gather folds a, the aggregate of from's subtree, into this node's in a
// Single round's wave (DESIGN.md deviation 9), with holder the child (or
// self) holding the best report so far. The holder's aggregate stays
// apart, in part, because the holder stops being a child if the report
// is chosen: then the exchange's cycle runs through it and this node,
// and recomputes the aggregate there (see onCycle). When from takes the
// report over (best), the old part joins agg and a becomes the new part.
func (n *Node) gather(from, holder sim.NodeID, best bool, a degAgg) {
	if !best {
		n.take(from, a)
		return
	}
	n.take(holder, n.part)
	n.part = a
}

// ownerComplete runs the paper's Choose step once every fragment answered:
// apply the best exchange if one exists, otherwise conclude the round for
// this owner. In a Multi round the exchange goes through the grant of
// DESIGN.md deviation 4 unless no claim can reach its endpoints, which
// always holds in a Single round.
func (n *Node) ownerComplete(ctx sim.Context) {
	n.sized = n.phase == Single
	switch {
	case !n.ownerHasBest:
		if n.actingRoot && n.phase == Single {
			// "If there is no more outgoing edge ... the maximum degree
			// cannot be (locally) improved": remember it and let
			// SearchDegree pick the next candidate (or terminate).
			n.exhausted = true
		}
		n.release(ctx)
		n.settle(ctx, false)
	case n.phase == Single || n.ownerBest.vroot != n.up &&
		!slices.Contains(n.relTo, n.ownerArrival) && !slices.Contains(n.relTo, n.ownerBest.vroot):
		// A Single round, or an edge between two of this owner's
		// fragments neither of which reported a claimer: no claim reaches
		// the endpoints, so exchange at once.
		// "The child which sent the best outgoing edge will be suppressed
		// from the children set" — the cut half of the exchange; update,
		// child and rounddone do the rest.
		n.moved = n.removeChild(n.ownerArrival)
		n.loseCutEdge()
		n.ownerSwapped = true
		n.swaps++
		n.awaitingDone = true
		sim.Send(ctx, n.ownerArrival, newUpdate(n.round, true, false, int(n.pub), nil))
		n.release(ctx)
	case n.ownerBest.vroot == n.up:
		// Through the parent fragment: register, report, wait.
		n.claimStep = claimRegister
		sim.Send(ctx, n.ownerArrival, newClaim(n.round, n.ownerBest.u, n.id, 0))
	default:
		// Every claim on the endpoints is in: register and decide.
		n.claimStep = claimCheck
		n.awaitingDone = true
		sim.Send(ctx, n.ownerArrival, newClaim(n.round, n.ownerBest.u, n.id, updQuery))
	}
}

// finishOwner concludes the round at this owner after its exchange (if any)
// was acknowledged; fell reports that the cut child's degree fell to k-2.
func (n *Node) finishOwner(ctx sim.Context, fell bool) {
	if !n.actingRoot {
		// Sub-owner (Multi): report upward; no outgoing edge is forwarded
		// (see DESIGN.md deviation 4), only the improvement flag.
		n.sendBack(ctx, false, n.ownerSwapped || n.improved, false)
		return
	}
	// Acting root: decide what the next round is.
	next := mStart{round: n.round + 1, cut: noCand, owner: noCand, phase: n.phase}
	switch n.phase {
	case Single:
		if n.ownerSwapped {
			next.cut, next.owner = n.ownerArrival, n.id
		}
		next.fell, next.moved = fell, n.moved
		n.startRound(ctx, next)
	case Multi:
		// Multi rounds set no exhausted flags, so there is none to clear.
		if n.ownerSwapped || n.improved {
			n.startRound(ctx, next)
			return
		}
		if n.mode == Hybrid {
			// Multi rounds stalled: continue with Single rounds until
			// full local optimality.
			next.phase = Single
			n.startRound(ctx, next)
			return
		}
		// No exchange anywhere: locally optimal tree.
		n.terminate(ctx)
	}
}
