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

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/tree"
)

// TwinStats mirrors the distributed run's round/exchange accounting.
type TwinStats struct {
	Rounds        int
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
// mode, starting from the initial tree (which is not modified), and returns
// the improved tree. For equal inputs its result tree (including root
// placement and edge orientation) is identical to the distributed
// protocol's.
func Twin(g *graph.Graph, initial *tree.Tree, mode mdst.Mode) (*tree.Tree, TwinStats, error) {
	return TwinTarget(g, initial, mode, 0)
}

// TwinTarget is Twin with the degree-target stop of mdst.Run.
func TwinTarget(g *graph.Graph, initial *tree.Tree, mode mdst.Mode, target int) (*tree.Tree, TwinStats, error) {
	return TwinTargetSnapshot(g.Compile(), initial, mode, target)
}

// TwinSnapshot is Twin over a pre-compiled snapshot: the experiment harness
// compiles each workload once per table and shares the snapshot across
// trials.
func TwinSnapshot(c *graph.CSR, initial *tree.Tree, mode mdst.Mode) (*tree.Tree, TwinStats, error) {
	return TwinTargetSnapshot(c, initial, mode, 0)
}

// TwinTargetSnapshot runs the sequential replica entirely on the dense-index
// substrate: the tree is the slice-backed tree.Dense, fragments and
// exhaustion flags are slices over the snapshot's index, and the edge scan
// walks the CSR adjacency — no NodeID map is touched after setup.
func TwinTargetSnapshot(c *graph.CSR, initial *tree.Tree, mode mdst.Mode, target int) (*tree.Tree, TwinStats, error) {
	if err := initial.Validate(c.Source()); err != nil {
		return nil, TwinStats{}, fmt.Errorf("fr: initial tree invalid: %w", err)
	}
	stop := 2
	if target > 2 {
		stop = target
	}
	d, err := tree.FromTree(initial, c.Index())
	if err != nil {
		return nil, TwinStats{}, fmt.Errorf("fr: %w", err)
	}
	stats := TwinStats{}
	n := c.N()
	tw := &twinRun{
		c:         c,
		d:         d,
		exhausted: make([]bool, n),
		frag:      make([]int32, n),
		fragOwner: make([]int32, n),
		fragRoot:  make([]int32, n),
		inS:       make([]bool, n),
		stack:     make([]int32, 0, n),
	}
	stats.InitialDegree, tw.maxBuf = d.MaxDegree(tw.maxBuf)
	phase := mdst.Multi
	if mode == mdst.Single {
		phase = mdst.Single
	}

	for {
		stats.Rounds++
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
			if tw.roundSingle(p, k) {
				stats.Swaps++
				clear(tw.exhausted)
			} else {
				tw.exhausted[p] = true
			}
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
	out := d.ToTree()
	stats.FinalDegree, _ = out.MaxDegree()
	return out, stats, nil
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
	stack     []int32
	maxBuf    []int32
}

const noFrag int32 = -1

// roundSingle mirrors one Single-mode round at acting root p: fragments are
// p's child subtrees; the best usable outgoing edge (if any) is applied.
func (tw *twinRun) roundSingle(p int32, k int) bool {
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
	if !found {
		return false
	}
	tw.applySwap(p, tw.frag[best.u], best)
	return true
}

// roundMulti mirrors one Multi-mode round: fragments are the components of
// T minus the maximum-degree set S, each owned by the S-node above it; every
// owner applies its best internal edge. Returns the number of exchanges.
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

	// Best internal edge per owner, owners applied in ascending order.
	type ownerBest struct {
		rep twinReport
		has bool
	}
	best := make(map[int32]*ownerBest) // few owners per round
	var owners []int32
	for a := int32(0); int(a) < c.N(); a++ {
		if tw.inS[a] {
			continue
		}
		for _, b := range c.Neighbors(a) {
			if b <= a || tw.inS[b] || d.HasEdge(a, b) {
				continue
			}
			fa, fb := tw.fragOwner[a], tw.fragOwner[b]
			if fa != fb || fa == noFrag || tw.fragRoot[a] == tw.fragRoot[b] {
				continue
			}
			da, db := d.Degree(a), d.Degree(b)
			if da > k-2 || db > k-2 {
				continue
			}
			u, v, du, dv := a, b, da, db
			if tw.fragRoot[b] < tw.fragRoot[a] {
				u, v, du, dv = b, a, db, da
			}
			rep := twinReport{u: u, v: v, du: du, dv: dv}
			cur := best[fa]
			if cur == nil {
				cur = &ownerBest{}
				best[fa] = cur
				owners = append(owners, fa)
			}
			if !cur.has || rep.better(cur.rep) {
				cur.rep, cur.has = rep, true
			}
		}
	}
	sortInt32s(owners)
	for _, o := range owners {
		rep := best[o].rep
		tw.applySwap(o, tw.fragRoot[rep.u], rep)
	}
	return len(owners)
}

// applySwap performs the exchange exactly as the distributed Update/Child
// chain does: cut the arrival child below the owner, re-root the detached
// subtree at u, reattach under v.
func (tw *twinRun) applySwap(owner, arrival int32, rep twinReport) {
	tw.d.CutChild(owner, arrival)
	tw.d.RerootSubtree(arrival, rep.u)
	tw.d.AttachExisting(rep.v, rep.u)
}

func sortInt32s(xs []int32) {
	for i := 1; i < len(xs); i++ { // insertion sort: owner sets are tiny
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
