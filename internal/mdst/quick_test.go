package mdst_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// Property-based end-to-end checks over random graphs, random initial
// spanning trees and random targets: the distributed protocol must always
// (1) terminate with a valid spanning tree, (2) never raise the degree,
// (3) match its sequential twin exactly, and (4) respect the per-round
// message budget.

func TestQuickDistributedEqualsTwin(t *testing.T) {
	f := func(seed int64, modeRaw, targetRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(24)
		g := graph.Gnm(n, n-1+rng.Intn(2*n), seed)
		c := g.Compile()
		t0, err := spanning.RandomST(c, seed+1)
		if err != nil {
			return false
		}
		mode := []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid}[modeRaw%3]
		target := int(targetRaw % 6)
		res, err := mdst.Run(unitEngine(), c, t0, mode, target)
		if err != nil {
			return false
		}
		if res.Tree.Validate(c) != nil || res.FinalDegree > res.InitialDegree {
			return false
		}
		want, stats, err := fr.Twin(c, t0, mode, target)
		if err != nil {
			return false
		}
		return res.Tree.Equal(want) && res.Rounds == stats.Rounds && res.Swaps == stats.Swaps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickPerRoundMessageBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(24)
		g := graph.Gnm(n, n-1+rng.Intn(3*n), seed)
		c := g.Compile()
		t0, err := spanning.StarTree(c)
		if err != nil {
			return false
		}
		res, err := mdst.Run(unitEngine(), c, t0, mdst.Multi, 0)
		if err != nil {
			return false
		}
		// Per round: start+deg+move+cut+rounddone+update+child+term is
		// O(n); bfs+cousin+bfsback is O(m). Generous constant: 6n + 5m.
		budget := int64(res.Rounds) * int64(6*g.N()+5*g.M())
		return res.Report.Messages <= budget
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickAsyncAdversary runs random graphs under seeded random delays,
// with and without FIFO, and demands the unit-delay result.
func TestQuickAsyncAdversary(t *testing.T) {
	f := func(seed int64, fifo bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 6 + rng.Intn(18)
		g := graph.Gnm(n, n-1+rng.Intn(2*n), seed)
		c := g.Compile()
		t0, err := spanning.StarTree(c)
		if err != nil {
			return false
		}
		ref, err := mdst.Run(unitEngine(), c, t0, mdst.Hybrid, 0)
		if err != nil {
			return false
		}
		adv := &sim.EventEngine{Delay: sim.UniformDelay(0.01), Seed: seed, FIFO: fifo}
		res, err := mdst.Run(adv, c, t0, mdst.Hybrid, 0)
		if err != nil {
			return false
		}
		return res.Tree.Equal(ref.Tree) && res.Report.Messages == ref.Report.Messages
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
