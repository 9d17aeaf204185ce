// Package fr provides the sequential counterparts of the distributed
// improvement protocol:
//
//   - Twin: a step-for-step sequential replica of internal/mdst with
//     identical tie-breaking, used as a differential-testing oracle and to
//     compute k*, the degree of the paper's Locally Optimal Tree, which the
//     complexity bounds O((k-k*)·m) and O((k-k*)·n) are stated against.
//   - FurerRaghavachari: the classic sequential local search the paper
//     builds on (reference [3]), using global cycle information.
//   - Strict: an extended variant that also clears degree-(k-1) blockers,
//     reaching the local optimality condition of FR's Theorem 1.
package fr

import (
	"fmt"
	"math"
	"slices"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/tree"
)

// TwinStats mirrors the distributed run's round/exchange accounting.
// Searches counts the rounds that run SearchDegree's deg convergecast, in
// which each node but the root sends one deg: every Multi round, every
// Single round whose previous round was not Single, and every Single
// round after an exchange whose cut child fell to degree k-2. Every other
// round takes its owner from the previous round's wave and exchange
// (DESIGN.md deviation 9).
type TwinStats struct {
	Rounds        int
	Searches      int
	Swaps         int
	InitialDegree int
	FinalDegree   int
}

// twinReport matches internal/mdst's edge report ordering exactly; u and v
// are dense node indices, whose order is the NodeID order, so the dense
// comparison breaks ties exactly like the distributed protocol's
// identity-based one.
type twinReport struct {
	u, v   int32
	du, dv int
}

func (r twinReport) key() [4]int64 {
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

func (r twinReport) better(o twinReport) bool {
	a, b := r.key(), o.key()
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Twin runs the sequential replica of the distributed protocol in the given
// mode over the snapshot, starting from the initial tree (which is not
// modified), and returns the improved tree. A positive target stops as soon
// as the maximum degree is at most target, like mdst.Run. For equal inputs
// the result tree (including root placement and edge orientation) is
// identical to the distributed protocol's. The replica runs entirely on
// dense indices: fragments and exhaustion flags are slices over the
// snapshot's index and the edge scan walks the CSR adjacency.
//
// Like the distributed protocol, each Single round after a Single round
// sets the exhausted flag of every maximum-degree node other than the
// owner exactly, from the low-link test on the round's tree before its
// exchange (DESIGN.md deviation 7).
func Twin(c *graph.CSR, initial *tree.Dense, mode mdst.Mode, target int) (*tree.Dense, TwinStats, error) {
	if err := initial.Validate(c); err != nil {
		return nil, TwinStats{}, fmt.Errorf("fr: initial tree invalid: %w", err)
	}
	tw := newTwinRun(c, initial.Clone())
	return tw.d, tw.run(mode, target), nil
}

// twinRun bundles the per-run dense scratch reused across rounds.
type twinRun struct {
	c         *graph.CSR
	d         *tree.Dense
	exhausted []bool
	frag      []int32 // single rounds: fragment (child of p) of every node
	fragOwner []int32 // multi rounds: owning S-node per fragment member
	fragRoot  []int32 // multi rounds: fragment root per member
	inS       []bool
	// multi rounds, indexed by owner: its parent fragment's root, its best
	// edge and whether it proposed one; owners lists the proposers
	up       []int32
	best     []twinReport
	proposed []bool
	owners   []int32
	stack    []int32
	maxBuf   []int32
	seen     []int32 // stamp of the exchange (revalidate) or grant pass (roundMulti) that last visited a node
	stamp    int32
	// waveFlags: subtree size, pre-order label and qualifying label range
	// of every node in the round's tree
	size, pre, lo, hi []int32
	// wave sets the exhausted flags of a labelled Single round at owner p
	// and maximum degree k; Twin uses waveFlags.
	wave func(tw *twinRun, p int32, k int)
	// invalidate updates the exhausted flags after a Single round whose
	// exchange cut the owner's child c (noFrag: the round found none);
	// fell reports that c's degree fell from k-1 to k-2. Twin uses
	// revalidate; tests substitute other rules.
	invalidate func(tw *twinRun, c int32, k int, fell bool)
}

func newTwinRun(c *graph.CSR, d *tree.Dense) *twinRun {
	n := c.N()
	scratch := make([]int32, 10*n) // one allocation backs the ten per-node slices
	part := func(i int) []int32 { return scratch[i*n : (i+1)*n : (i+1)*n] }
	return &twinRun{
		c:          c,
		d:          d,
		exhausted:  make([]bool, n),
		frag:       part(0),
		fragOwner:  part(1),
		fragRoot:   part(2),
		seen:       part(3),
		size:       part(4),
		pre:        part(5),
		lo:         part(6),
		hi:         part(7),
		up:         part(8),
		best:       make([]twinReport, n),
		proposed:   make([]bool, n),
		owners:     part(9)[:0],
		inS:        make([]bool, n),
		stack:      make([]int32, 0, n),
		wave:       (*twinRun).waveFlags,
		invalidate: (*twinRun).revalidate,
	}
}

// run improves tw.d in place and returns the round accounting.
func (tw *twinRun) run(mode mdst.Mode, target int) TwinStats {
	stop := 2
	if target > 2 {
		stop = target
	}
	d := tw.d
	stats := TwinStats{}
	stats.InitialDegree, tw.maxBuf = d.MaxDegree(tw.maxBuf)
	phase := mdst.Multi
	if mode == mdst.Single {
		phase = mdst.Single
	}
	// labelled: the previous round was Single, so the nodes know their
	// subtree sizes and this round's wave can label the tree. fused: it
	// also found this round's owner.
	labelled, fused := false, false

	for {
		stats.Rounds++
		if phase != mdst.Single || !fused {
			stats.Searches++
		}
		k, maxNodes := d.MaxDegree(tw.maxBuf)
		tw.maxBuf = maxNodes
		if k <= stop {
			break
		}
		if phase == mdst.Single {
			// SearchDegree: minimum identity among eligible nodes (dense
			// ascending == NodeID ascending).
			p := int32(-1)
			for _, v := range maxNodes {
				if !tw.exhausted[v] {
					p = v
					break
				}
			}
			if p < 0 {
				break // all maximum-degree nodes exhausted
			}
			d.Reroot(p) // MoveRoot (path reversal)
			if labelled {
				tw.wave(tw, p, k)
			}
			labelled = true
			c, fell := tw.roundSingle(p, k)
			fused = !fell
			if c != noFrag {
				stats.Swaps++
			} else {
				tw.exhausted[p] = true
			}
			tw.invalidate(tw, c, k, fell)
			continue
		}
		// Multi phase: every maximum-degree node exchanges concurrently.
		d.Reroot(maxNodes[0])
		swaps := tw.roundMulti(k)
		stats.Swaps += swaps
		if swaps == 0 {
			if mode == mdst.Hybrid {
				phase = mdst.Single
				continue
			}
			break
		}
	}
	stats.FinalDegree, _ = d.MaxDegree(nil)
	return stats
}

// revalidate is the targeted invalidation of DESIGN.md deviation 1. The
// tree is still rooted at the owner p, so the new path p…c is c's ancestor
// chain; every node on it loses its flag. When c fell from k-1 to k-2, so
// does every ancestor-or-self of each non-tree neighbour x of c with
// deg(x) <= k-2: with the path, the union of the tree paths from c to each
// x. Any other exhausted node still has no usable edge.
func (tw *twinRun) revalidate(c int32, k int, fell bool) {
	if c == noFrag {
		return
	}
	d := tw.d
	tw.stamp++
	for w := c; w != tree.NoParent; w = d.Parent(w) {
		tw.exhausted[w] = false
		tw.seen[w] = tw.stamp
	}
	if !fell {
		return
	}
	for _, x := range tw.c.Neighbors(c) {
		if d.HasEdge(c, x) || d.Degree(x) > k-2 {
			continue
		}
		for w := x; tw.seen[w] != tw.stamp; w = d.Parent(w) {
			tw.exhausted[w] = false
			tw.seen[w] = tw.stamp
		}
	}
}

// waveFlags is the exact test of DESIGN.md deviation 7 on the tree rooted
// at the owner p. A non-tree edge qualifies when both endpoints have
// degree at most k-2; every maximum-degree node w other than p is
// exhausted unless some child c of w has a qualifying edge leaving c's
// subtree, that is a qualifying neighbour labelled outside c's pre-order
// interval pre(c)..pre(c)+size(c)-1.
func (tw *twinRun) waveFlags(p int32, k int) {
	c, d := tw.c, tw.d
	order := d.WalkSubtree(p, tw.stack[:0]) // every parent before its children
	tw.stack = order
	for i := len(order) - 1; i >= 0; i-- {
		x := order[i]
		tw.size[x] = 1
		for _, ch := range d.Children(x) {
			tw.size[x] += tw.size[ch]
		}
	}
	tw.pre[p] = 0
	for _, x := range order {
		next := tw.pre[x] + 1
		for _, ch := range d.Children(x) {
			tw.pre[ch] = next
			next += tw.size[ch]
		}
	}
	for i := len(order) - 1; i >= 0; i-- {
		x := order[i]
		lo, hi := int32(math.MaxInt32), int32(-1)
		if d.Degree(x) <= k-2 {
			for _, y := range c.Neighbors(x) {
				if d.Degree(y) <= k-2 && !d.HasEdge(x, y) {
					lo, hi = min(lo, tw.pre[y]), max(hi, tw.pre[y])
				}
			}
		}
		eligible := false
		for _, ch := range d.Children(x) {
			lo, hi = min(lo, tw.lo[ch]), max(hi, tw.hi[ch])
			eligible = eligible || tw.lo[ch] < tw.pre[ch] || tw.hi[ch] >= tw.pre[ch]+tw.size[ch]
		}
		tw.lo[x], tw.hi[x] = lo, hi
		if x != p && d.Degree(x) == k {
			tw.exhausted[x] = !eligible
		}
	}
}

const noFrag int32 = -1

// roundSingle mirrors one Single-mode round at acting root p: fragments are
// p's child subtrees; the best usable outgoing edge (if any) is applied. It
// returns the child c whose edge to p was cut (noFrag if none) and whether
// c's degree fell from k-1 to k-2.
func (tw *twinRun) roundSingle(p int32, k int) (int32, bool) {
	best, found := tw.bestSingle(p, k)
	if !found {
		return noFrag, false
	}
	d := tw.d
	arrival := tw.frag[best.u]
	before := d.Degree(arrival)
	tw.applySwap(p, arrival, best)
	return arrival, before == k-1 && d.Degree(arrival) == k-2
}

// bestSingle finds the exchange a Single round at acting root p would
// apply: the best usable edge between two of p's child subtrees, which it
// leaves labelled in tw.frag.
func (tw *twinRun) bestSingle(p int32, k int) (twinReport, bool) {
	c, d := tw.c, tw.d
	for i := range tw.frag {
		tw.frag[i] = noFrag
	}
	for _, child := range d.Children(p) {
		tw.stack = d.WalkSubtree(child, tw.stack[:0])
		for _, x := range tw.stack {
			tw.frag[x] = child
		}
	}
	var best twinReport
	found := false
	for a := int32(0); int(a) < c.N(); a++ {
		for _, b := range c.Neighbors(a) {
			if b <= a || d.HasEdge(a, b) {
				continue
			}
			if a == p || b == p {
				continue
			}
			fa, fb := tw.frag[a], tw.frag[b]
			if fa == fb {
				continue
			}
			da, db := d.Degree(a), d.Degree(b)
			if da > k-2 || db > k-2 {
				continue
			}
			// Recording side: the endpoint in the smaller fragment identity.
			u, v, du, dv := a, b, da, db
			if fb < fa {
				u, v, du, dv = b, a, db, da
			}
			rep := twinReport{u: u, v: v, du: du, dv: dv}
			if !found || rep.better(best) {
				best, found = rep, true
			}
		}
	}
	return best, found
}

// roundMulti mirrors one Multi-mode round: fragments are the components of
// T minus the maximum-degree set S, each owned by the S-node above it.
// Every owner proposes its best usable edge, either between two of its own
// fragments or from one of them into its parent fragment, the fragment
// holding its parent (DESIGN.md deviation 4). A contested endpoint goes to
// the proposing owner with the smallest identity; an owner exchanges only
// if it wins both endpoints. It leaves the exchanging owners in tw.owners,
// ascending, with their edges in tw.best, and returns how many there are.
func (tw *twinRun) roundMulti(k int) int {
	c, d := tw.c, tw.d
	clear(tw.inS)
	for _, v := range tw.maxBuf {
		tw.inS[v] = true
	}
	// Walk the tree from the root labelling fragments: a child of an S-node
	// starts a new fragment (owner = that S-node, root = child); a child of
	// a member inherits its fragment. A rootless component (root not in S)
	// has no owner and takes part in no exchange.
	for i := range tw.fragOwner {
		tw.fragOwner[i] = noFrag
		tw.fragRoot[i] = noFrag
	}
	root := d.Root()
	if !tw.inS[root] {
		tw.fragOwner[root] = noFrag
		tw.fragRoot[root] = root
	}
	tw.stack = append(tw.stack[:0], root)
	for len(tw.stack) > 0 {
		v := tw.stack[len(tw.stack)-1]
		tw.stack = tw.stack[:len(tw.stack)-1]
		for _, ch := range d.Children(v) {
			if !tw.inS[ch] {
				if tw.inS[v] {
					tw.fragOwner[ch] = v
					tw.fragRoot[ch] = ch
				} else {
					tw.fragOwner[ch] = tw.fragOwner[v]
					tw.fragRoot[ch] = tw.fragRoot[v]
				}
			}
			tw.stack = append(tw.stack, ch)
		}
	}
	// The parent fragment of each owner, named by its root.
	for _, w := range tw.maxBuf {
		tw.up[w] = noFrag
		if p := d.Parent(w); p != tree.NoParent && !tw.inS[p] {
			tw.up[w] = tw.fragRoot[p]
		}
	}

	// Best usable edge per owner. The recording endpoint u lies in one of
	// the owner's fragments: the one with the smaller root for an edge
	// between two of them, the child fragment for an edge into the parent
	// fragment.
	tw.owners = tw.owners[:0]
	for a := int32(0); int(a) < c.N(); a++ {
		if tw.inS[a] || d.Degree(a) > k-2 {
			continue
		}
		for _, b := range c.Neighbors(a) {
			if b <= a || tw.inS[b] || d.HasEdge(a, b) || d.Degree(b) > k-2 {
				continue
			}
			oa, ob := tw.fragOwner[a], tw.fragOwner[b]
			ra, rb := tw.fragRoot[a], tw.fragRoot[b]
			if ra == rb {
				continue
			}
			o, u, v := noFrag, a, b
			switch {
			case oa == ob:
				o = oa
				if rb < ra {
					u, v = b, a
				}
			case oa != noFrag && tw.up[oa] == rb:
				o = oa
			case ob != noFrag && tw.up[ob] == ra:
				o, u, v = ob, b, a
			}
			if o == noFrag {
				continue
			}
			rep := twinReport{u: u, v: v, du: d.Degree(u), dv: d.Degree(v)}
			if !tw.proposed[o] {
				tw.proposed[o] = true
				tw.best[o] = rep
				tw.owners = append(tw.owners, o)
			} else if rep.better(tw.best[o]) {
				tw.best[o] = rep
			}
		}
	}

	// Grants, smallest owner first: an endpoint goes to the first owner
	// that claims it, and an owner exchanges only if both its endpoints
	// were still free. A loser's claims still count. tw.seen marks the
	// claimed endpoints with a fresh stamp.
	slices.Sort(tw.owners)
	tw.stamp++
	won := tw.owners[:0]
	for _, o := range tw.owners {
		rep := tw.best[o]
		tw.proposed[o] = false
		free := tw.seen[rep.u] != tw.stamp && tw.seen[rep.v] != tw.stamp
		tw.seen[rep.u], tw.seen[rep.v] = tw.stamp, tw.stamp
		if free {
			won = append(won, o)
		}
	}
	tw.owners = won
	// The exchanges commute (each cycle holds one S-node, its owner), so
	// they apply in any order on the round's fragments.
	for _, o := range won {
		rep := tw.best[o]
		tw.applySwap(o, tw.fragRoot[rep.u], rep)
	}
	return len(won)
}

// applySwap performs the exchange exactly as the distributed Update/Child
// chain does: cut the arrival child below the owner, re-root the detached
// subtree at u, reattach under v.
func (tw *twinRun) applySwap(owner, arrival int32, rep twinReport) {
	tw.d.CutChild(owner, arrival)
	tw.d.RerootSubtree(arrival, rep.u)
	tw.d.AttachExisting(rep.v, rep.u)
}
