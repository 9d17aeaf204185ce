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

// TestTargetedExhaustionSound audits the exhausted flags of DESIGN.md
// deviations 1 and 7 on 1,000 seeded graphs. A trial of node w re-roots a
// copy of the tree at w and searches it as one Single round would.
//   - In every labelled Single round of the twin, each flag the wave sets
//     must equal a trial on the tree before the exchange: set exactly when
//     the trial finds no exchange.
//   - After every Single round, failed ones included, each maximum-degree
//     node left exhausted must fail a trial.
//
// The run must also agree with the clear-every-flag rule on swaps and
// final degree, in no more rounds.
func TestTargetedExhaustionSound(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	checks, waveChecks := 0, 0
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
		// exchanges trials w at maximum degree k on probe.d, a copy of the
		// tree: re-rooting keeps it the same undirected tree.
		exchanges := func(w int32, k int) bool {
			probe.d.Reroot(w)
			_, found := probe.bestSingle(w, k)
			return found
		}
		tw.wave = func(r *twinRun, p int32, k int) {
			r.waveFlags(p, k)
			probe.d = r.d.Clone()
			for w := range int32(c.N()) {
				if w == p || r.d.Degree(w) != k {
					continue
				}
				waveChecks++
				if exchanges(w, k) == r.exhausted[w] {
					t.Fatalf("graph %d (%s, n=%d): the wave at owner %d set node %d's flag to %v at k=%d, but a trial at it disagrees",
						i, family, c.N(), p, w, r.exhausted[w], k)
				}
			}
		}
		tw.invalidate = func(r *twinRun, cut int32, k int, fell bool) {
			r.revalidate(cut, k, fell)
			kNow, maxNodes := r.d.MaxDegree(nil)
			probe.d = r.d.Clone()
			for _, w := range maxNodes {
				if !r.exhausted[w] {
					continue
				}
				checks++
				if exchanges(w, kNow) {
					t.Fatalf("graph %d (%s, n=%d): node %d kept exhausted at k=%d after the round that cut %d, yet a round at it exchanges",
						i, family, c.N(), w, kNow, cut)
				}
			}
		}
		st := tw.run(mode, 0)

		old := newTwinRun(c, t0.Clone())
		old.invalidate = func(r *twinRun, cut int32, _ int, _ bool) {
			if cut != noFrag {
				clear(r.exhausted)
			}
		}
		want := old.run(mode, 0)
		if st.Swaps != want.Swaps || st.FinalDegree != want.FinalDegree || st.Rounds > want.Rounds {
			t.Fatalf("graph %d (%s, n=%d, %v): targeted %+v, clear-all %+v", i, family, c.N(), mode, st, want)
		}
	}
	if checks < 1000 || waveChecks < 1000 {
		t.Fatalf("only %d flagged nodes and %d wave flags were tried; the corpus no longer exercises the rules", checks, waveChecks)
	}
	t.Logf("%d flagged nodes tried after their rounds, none could exchange; %d wave flags matched their trials", checks, waveChecks)
}
