package fr

import (
	"math/rand"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// revalidateCorpus draws seeded graphs of at most 256 nodes from the five
// families the targeted rule is audited on, cycling gnm, ba, grid, wheel
// and hamchords.
func revalidateCorpus(i int, rng *rand.Rand) (string, *graph.Graph) {
	n := 8 + rng.Intn(249)
	seed := rng.Int63()
	switch i % 5 {
	case 0:
		return "gnm", graph.Gnm(n, n-1+rng.Intn(2*n), seed)
	case 1:
		return "ba", graph.BarabasiAlbert(n, 1+rng.Intn(3), seed)
	case 2:
		rows := 2 + rng.Intn(15)
		return "grid", graph.Grid(rows, 2+rng.Intn(256/rows-1))
	case 3:
		return "wheel", graph.Wheel(n)
	default:
		return "hamchords", graph.HamiltonianPlusChords(n, rng.Intn(2*n), seed)
	}
}

// TestTargetedExhaustionSound audits DESIGN.md deviation 1 on 1,000 seeded
// graphs. After every Single exchange of the twin, each maximum-degree node
// the targeted rule leaves exhausted is tried on a copy of the tree —
// re-rooted at it, then one Single round — and must find no exchange. The
// run must also agree with the superseded clear-every-flag rule on swaps
// and final degree, in no more rounds.
func TestTargetedExhaustionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	checks := 0
	for i := range 1000 {
		family, g := revalidateCorpus(i, rng)
		c := g.Compile()
		var t0 *tree.Dense
		var err error
		if i%4 == 0 {
			t0, err = spanning.StarTree(c)
		} else {
			t0, err = spanning.RandomST(c, rng.Int63())
		}
		if err != nil {
			t.Fatal(err)
		}
		mode := mdst.Single
		if i%3 == 0 {
			mode = mdst.Hybrid
		}

		tw := newTwinRun(c, t0.Clone())
		probe := newTwinRun(c, nil)
		tw.invalidate = func(_ *twinRun, cut int32, k int, fell bool) {
			tw.revalidate(cut, k, fell)
			kNow, maxNodes := tw.d.MaxDegree(nil)
			probe.d = tw.d.Clone()
			for _, w := range maxNodes {
				if !tw.exhausted[w] {
					continue
				}
				checks++
				probe.d.Reroot(w)
				if got, _ := probe.roundSingle(w, kNow); got != noFrag {
					t.Fatalf("graph %d (%s, n=%d): node %d kept exhausted at k=%d after the exchange cutting %d, yet a round at it exchanges",
						i, family, c.N(), w, kNow, cut)
				}
			}
		}
		st := tw.run(mode, 0)

		old := newTwinRun(c, t0.Clone())
		old.invalidate = func(r *twinRun, _ int32, _ int, _ bool) { clear(r.exhausted) }
		want := old.run(mode, 0)
		if st.Swaps != want.Swaps || st.FinalDegree != want.FinalDegree || st.Rounds > want.Rounds {
			t.Fatalf("graph %d (%s, n=%d, %v): targeted %+v, clear-all %+v", i, family, c.N(), mode, st, want)
		}
	}
	if checks < 1000 {
		t.Fatalf("only %d kept-exhausted nodes were tried; the corpus no longer exercises the rule", checks)
	}
	t.Logf("%d kept-exhausted nodes tried, none could exchange", checks)
}
