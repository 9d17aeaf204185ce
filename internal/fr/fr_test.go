package fr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"mdegst/internal/exact"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

func randomConnected(rng *rand.Rand, n int) *graph.Graph {
	m := n - 1 + rng.Intn(2*n)
	return graph.Gnm(n, m, rng.Int63())
}

func starInitial(t testing.TB, c *graph.CSR) *tree.Dense {
	t.Helper()
	t0, err := spanning.StarTree(c)
	if err != nil {
		t.Fatal(err)
	}
	return t0
}

func TestTwinNeverIncreasesDegree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40; i++ {
		c := randomConnected(rng, 8+rng.Intn(30)).Compile()
		t0 := starInitial(t, c)
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi} {
			got, stats, err := Twin(c, t0, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := got.Validate(c); err != nil {
				t.Fatalf("iter %d: %v", i, err)
			}
			if stats.FinalDegree > stats.InitialDegree {
				t.Fatalf("iter %d %v: degree rose %d -> %d", i, mode, stats.InitialDegree, stats.FinalDegree)
			}
			if stats.Rounds < 1 {
				t.Fatalf("iter %d: rounds = %d", i, stats.Rounds)
			}
		}
	}
}

// TestTwinModesReachLocalOptimum checks each mode's terminal condition:
// Single and Hybrid stop at full local optimality (no usable edge across any
// maximum-degree node); Multi stops at the weaker per-owner condition (no
// usable edge between two fragments of the same owner or from one of them
// into the owner's parent fragment — DESIGN.md dev. 4).
func TestTwinModesReachLocalOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 25; i++ {
		g := randomConnected(rng, 10+rng.Intn(20))
		c := g.Compile()
		t0 := starInitial(t, c)
		for _, mode := range []mdst.Mode{mdst.Single, mdst.Hybrid} {
			tr, _, err := Twin(c, t0, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !isLocallyOptimalSingle(c, tr) {
				t.Errorf("iter %d: %v result is not locally optimal", i, mode)
			}
		}
		multi, _, err := Twin(c, t0, mdst.Multi, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !isLocallyOptimalMulti(c, multi) {
			t.Errorf("iter %d: multi result violates its terminal condition", i)
		}
	}
}

// isLocallyOptimalMulti checks the Multi-mode terminal condition: rooted at
// the minimum-identity maximum-degree node, no owner has a usable edge
// between two of its own T-S fragments or from one of them into its parent
// fragment, the fragment holding its parent.
func isLocallyOptimalMulti(c *graph.CSR, d *tree.Dense) bool {
	k, maxNodes := d.MaxDegree(nil)
	if k <= 2 {
		return true
	}
	work := d.Clone()
	work.Reroot(maxNodes[0])
	inS := make([]bool, c.N())
	for _, v := range maxNodes {
		inS[v] = true
	}
	type fragInfo struct{ owner, root int32 }
	frag := make([]fragInfo, c.N())
	var walk func(v int32)
	walk = func(v int32) {
		for _, ch := range work.Children(v) {
			if !inS[ch] {
				if inS[v] {
					frag[ch] = fragInfo{owner: v, root: ch}
				} else {
					frag[ch] = frag[v]
				}
			}
			walk(ch)
		}
	}
	walk(work.Root())
	for _, e := range c.DenseEdges(nil) {
		a, b := e[0], e[1]
		if work.HasEdge(a, b) || inS[a] || inS[b] {
			continue
		}
		fa, fb := frag[a], frag[b]
		if fa.root == fb.root || work.Degree(a) > k-2 || work.Degree(b) > k-2 {
			continue
		}
		up := func(f fragInfo) fragInfo { // the parent fragment of f's owner
			p := work.Parent(f.owner)
			if p == tree.NoParent || inS[p] {
				return fragInfo{owner: -1, root: -1}
			}
			return frag[p]
		}
		if fa.owner == fb.owner || up(fa) == fb || up(fb) == fa {
			return false
		}
	}
	return true
}

// isLocallyOptimalSingle checks the Single-mode terminal condition directly:
// no maximum-degree node p has a usable edge between two components of T-p.
func isLocallyOptimalSingle(c *graph.CSR, d *tree.Dense) bool {
	k, maxNodes := d.MaxDegree(nil)
	if k <= 2 {
		return true
	}
	for _, p := range maxNodes {
		work := d.Clone()
		work.Reroot(p)
		frag := make([]int32, c.N())
		for _, ch := range work.Children(p) {
			for _, x := range work.WalkSubtree(ch, nil) {
				frag[x] = ch
			}
		}
		for _, e := range c.DenseEdges(nil) {
			a, b := e[0], e[1]
			if a == p || b == p || work.HasEdge(a, b) {
				continue
			}
			if frag[a] == frag[b] {
				continue
			}
			if work.Degree(a) <= k-2 && work.Degree(b) <= k-2 {
				return false
			}
		}
	}
	return true
}

func TestFurerRaghavachariQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	worstGap := 0
	for i := 0; i < 40; i++ {
		c := randomConnected(rng, 6+rng.Intn(8)).Compile() // exact-solvable sizes
		t0 := starInitial(t, c)
		got, stats, err := FurerRaghavachari(c, t0)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(c); err != nil {
			t.Fatal(err)
		}
		opt, _, err := exact.MinDegree(c)
		if err != nil {
			t.Fatal(err)
		}
		gap := stats.FinalDegree - opt
		if gap > worstGap {
			worstGap = gap
		}
		if gap < 0 {
			t.Fatalf("iter %d: better than optimal?! %d < %d", i, stats.FinalDegree, opt)
		}
	}
	// The classic guarantee is Δ*+1; the plain variant can rarely exceed it
	// on adversarial instances, but on these random graphs it should not.
	if worstGap > 1 {
		t.Errorf("worst gap = %d, want <= 1 on random graphs", worstGap)
	}
}

func TestStrictNeverWorseThanPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 30; i++ {
		c := randomConnected(rng, 8+rng.Intn(14)).Compile()
		t0 := starInitial(t, c)
		plain, ps, err := FurerRaghavachari(c, t0)
		if err != nil {
			t.Fatal(err)
		}
		strict, ss, err := Strict(c, t0)
		if err != nil {
			t.Fatal(err)
		}
		if err := plain.Validate(c); err != nil {
			t.Fatal(err)
		}
		if err := strict.Validate(c); err != nil {
			t.Fatal(err)
		}
		if ss.FinalDegree > ps.FinalDegree {
			t.Errorf("iter %d: strict %d worse than plain %d", i, ss.FinalDegree, ps.FinalDegree)
		}
	}
}

func TestStrictWithinOneOfOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		c := randomConnected(rng, 6+rng.Intn(8)).Compile()
		t0 := starInitial(t, c)
		_, ss, err := Strict(c, t0)
		if err != nil {
			t.Fatal(err)
		}
		opt, _, err := exact.MinDegree(c)
		if err != nil {
			t.Fatal(err)
		}
		if ss.FinalDegree > opt+1 {
			t.Errorf("iter %d: strict degree %d > Δ*+1 = %d", i, ss.FinalDegree, opt+1)
		}
	}
}

func TestTwinOnChain(t *testing.T) {
	c := graph.Ring(9).Compile()
	t0, err := spanning.BFSTree(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := Twin(c, t0, mdst.Single, 0)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 || stats.Swaps != 0 {
		t.Errorf("rounds=%d swaps=%d", stats.Rounds, stats.Swaps)
	}
	if !got.Equal(t0) {
		t.Error("chain tree was modified")
	}
}

func TestTwinRejectsBadTree(t *testing.T) {
	c := graph.Ring(5).Compile()
	bad := tree.NewDense(c.Index(), 0) // every other node detached
	if _, _, err := Twin(c, bad, mdst.Single, 0); err == nil {
		t.Error("non-spanning tree accepted")
	}
}

// Property: for random graphs and random initial spanning trees, the twin
// keeps a valid spanning tree, never raises the degree, and its Multi-mode
// round count is at most the Single-mode one (concurrent exchanges).
func TestQuickTwinInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomConnected(rng, 6+rng.Intn(24)).Compile()
		t0, err := spanning.RandomST(c, seed)
		if err != nil {
			return false
		}
		single, s1, err := Twin(c, t0, mdst.Single, 0)
		if err != nil || single.Validate(c) != nil {
			return false
		}
		multi, s2, err := Twin(c, t0, mdst.Multi, 0)
		if err != nil || multi.Validate(c) != nil {
			return false
		}
		if s1.FinalDegree > s1.InitialDegree || s2.FinalDegree > s2.InitialDegree {
			return false
		}
		// Multi applies at least as many exchanges per round.
		return s2.Rounds <= s1.Rounds+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func ExampleTwin() {
	c := graph.Wheel(8).Compile()
	t0, _ := spanning.StarTree(c)
	improved, stats, _ := Twin(c, t0, mdst.Single, 0)
	deg, _ := improved.MaxDegree(nil)
	fmt.Println("initial:", stats.InitialDegree, "final:", deg)
	// Output: initial: 7 final: 2
}
