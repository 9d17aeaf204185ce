package mdst_test

import (
	"fmt"
	"testing"

	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/spanning"
)

// TestTargetDifferential: a targeted Run must match the twin exactly for every
// target value, as the untargeted runs do.
func TestTargetDifferential(t *testing.T) {
	g := graph.BarabasiAlbert(40, 2, 17)
	c := g.Compile()
	t0, err := spanning.StarTree(c)
	if err != nil {
		t.Fatal(err)
	}
	k0, _ := t0.MaxDegree(nil)
	for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
		for target := 0; target <= k0; target += 3 {
			t.Run(fmt.Sprintf("%v/target=%d", mode, target), func(t *testing.T) {
				res, err := mdst.Run(unitEngine(), c, t0, mode, target)
				if err != nil {
					t.Fatal(err)
				}
				want, stats, err := fr.Twin(c, t0, mode, target)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Tree.Equal(want) {
					t.Fatal("trees differ")
				}
				if res.Rounds != stats.Rounds || res.Swaps != stats.Swaps {
					t.Errorf("rounds/swaps %d/%d, twin %d/%d", res.Rounds, res.Swaps, stats.Rounds, stats.Swaps)
				}
			})
		}
	}
}

// TestTargetSemantics: with target t, the run stops at the first round whose
// maximum degree is <= t, so the final degree lies between the locally
// optimal k* and max(t, k*), and the run is never longer than the full one.
func TestTargetSemantics(t *testing.T) {
	g := graph.Gnm(50, 150, 23)
	c := g.Compile()
	t0, err := spanning.StarTree(c)
	if err != nil {
		t.Fatal(err)
	}
	full, err := mdst.Run(unitEngine(), c, t0, mdst.Single, 0)
	if err != nil {
		t.Fatal(err)
	}
	kStar := full.FinalDegree
	k0 := full.InitialDegree
	for target := 0; target <= k0+1; target++ {
		res, err := mdst.Run(unitEngine(), c, t0, mdst.Single, target)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalDegree < kStar {
			t.Errorf("target %d: degree %d below the local optimum %d", target, res.FinalDegree, kStar)
		}
		upper := target
		if upper < kStar {
			upper = kStar
		}
		if res.FinalDegree > upper {
			t.Errorf("target %d: degree %d above max(target,k*)=%d", target, res.FinalDegree, upper)
		}
		if res.Rounds > full.Rounds {
			t.Errorf("target %d: %d rounds exceed the full run's %d", target, res.Rounds, full.Rounds)
		}
		if res.Swaps > full.Swaps {
			t.Errorf("target %d: %d swaps exceed the full run's %d", target, res.Swaps, full.Swaps)
		}
	}
}

// TestTargetAlreadyMet: a target at or above the initial degree must
// terminate in one round with no exchange.
func TestTargetAlreadyMet(t *testing.T) {
	g := graph.Gnp(25, 0.25, 31)
	c := g.Compile()
	t0, err := spanning.BFSTree(c, g.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	k0, _ := t0.MaxDegree(nil)
	res, err := mdst.Run(unitEngine(), c, t0, mdst.Hybrid, k0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 1 || res.Swaps != 0 {
		t.Errorf("rounds=%d swaps=%d, want 1 and 0", res.Rounds, res.Swaps)
	}
	if !res.Tree.Equal(t0) {
		t.Error("tree was modified although the target was already met")
	}
}

// TestTargetBelowTwoActsAsUnbounded: targets 0..2 all mean "improve fully".
func TestTargetBelowTwoActsAsUnbounded(t *testing.T) {
	g := graph.Wheel(14)
	c := g.Compile()
	t0, err := spanning.StarTree(c)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := mdst.Run(unitEngine(), c, t0, mdst.Single, 0)
	if err != nil {
		t.Fatal(err)
	}
	for target := 0; target <= 2; target++ {
		res, err := mdst.Run(unitEngine(), c, t0, mdst.Single, target)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Tree.Equal(ref.Tree) {
			t.Errorf("target %d changed the result", target)
		}
	}
}
