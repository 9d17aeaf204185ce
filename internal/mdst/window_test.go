package mdst_test

import (
	"fmt"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// perRound returns the deliveries of every protocol round rep counted,
// indexed by round.
func perRound(rep *sim.Report) []int64 {
	var rounds []int64
	for _, kr := range rep.KindRounds() {
		for len(rounds) <= kr.Round {
			rounds = append(rounds, 0)
		}
		rounds[kr.Round] += kr.Count
	}
	return rounds
}

// checkMargin requires every protocol round of rep to deliver at most a
// quarter of the run guard's window for that round over c, and returns
// the largest round's share of (n+m) (round 0's of n·(n+m)).
func checkMargin(t *testing.T, name string, c *graph.CSR, rep *sim.Report) (r0, rk float64) {
	t.Helper()
	n, m := float64(c.N()), float64(c.M())
	for r, got := range perRound(rep) {
		if w := sim.Window(c, r); got > w/4 {
			t.Errorf("%s: protocol round %d delivered %d messages, more than a quarter of its %d-delivery window", name, r, got, w)
		}
		if r == 0 {
			r0 = max(r0, float64(got)/(n*(n+m)))
		} else {
			rk = max(rk, float64(got)/(n+m))
		}
	}
	return r0, rk
}

// TestRoundsWithinWindow pins the margin between the largest protocol
// round and the run guard's window: every round of every spanning builder
// (ring election, the Θ(n·m) worst case, among them) and of every mdst
// mode from flood, star and random starts over six graph families must
// deliver at most a quarter of its window. A protocol change that fattens
// a round fails here, not a long run. The wheel from its hub star in
// Single mode also shows why the window is per round: the run delivers
// far more than one window in total.
func TestRoundsWithinWindow(t *testing.T) {
	graphs := []struct {
		name string
		c    *graph.CSR
	}{
		{"gnm-256", graph.Gnm(256, 768, 1).Compile()},
		{"ba-256", graph.BarabasiAlbert(256, 2, 1).Compile()},
		{"wheel-64", graph.Wheel(64).Compile()},
		{"complete-32", graph.Complete(32).Compile()},
		{"hypercube-64", graph.Hypercube(6).Compile()},
		{"grid-16x16", graph.Grid(16, 16).Compile()},
	}
	eng := &sim.EventEngine{}
	var top0, topK float64
	note := func(r0, rk float64) { top0, topK = max(top0, r0), max(topK, rk) }

	builders := map[string]func(c *graph.CSR) sim.Factory{
		"flood":    func(c *graph.CSR) sim.Factory { return spanning.NewFloodFactory(c, c.Index().ID(0)) },
		"dfs":      func(c *graph.CSR) sim.Factory { return spanning.NewDFSFactory(c.Index().ID(0)) },
		"ghs":      func(*graph.CSR) sim.Factory { return spanning.NewGHSFactory() },
		"election": func(*graph.CSR) sim.Factory { return spanning.NewElectionFactory() },
	}
	small := []struct {
		name string
		c    *graph.CSR
	}{
		{"pair", graph.Path(2).Compile()},
		{"path-3", graph.Path(3).Compile()},
		{"ring-3", graph.Ring(3).Compile()},
		{"ring-1024", graph.Ring(1024).Compile()},
		{"complete-4", graph.Complete(4).Compile()},
		{"star-8", graph.Star(8).Compile()},
	}
	for _, g := range append(small, graphs...) {
		for bname, f := range builders {
			_, rep, err := spanning.Build(eng, g.c, f(g.c))
			if err != nil {
				t.Fatalf("%s/%s: %v", g.name, bname, err)
			}
			note(checkMargin(t, fmt.Sprintf("%s/%s", g.name, bname), g.c, rep))
		}
	}

	for _, g := range graphs {
		flood, _, err := spanning.Build(eng, g.c, spanning.NewFloodFactory(g.c, g.c.Index().ID(0)))
		if err != nil {
			t.Fatal(err)
		}
		star, err := spanning.StarTree(g.c)
		if err != nil {
			t.Fatal(err)
		}
		random, err := spanning.RandomST(g.c, 1)
		if err != nil {
			t.Fatal(err)
		}
		for sname, t0 := range map[string]*tree.Dense{"flood": flood, "star": star, "random": random} {
			for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
				res, err := mdst.Run(eng, g.c, t0, mode, 0)
				if err != nil {
					t.Fatalf("%s/%s/%v: %v", g.name, sname, mode, err)
				}
				note(checkMargin(t, fmt.Sprintf("%s/%s/%v", g.name, sname, mode), g.c, res.Report))
			}
		}
	}

	c := graph.Complete(128).Compile()
	star, err := spanning.StarTree(c)
	if err != nil {
		t.Fatal(err)
	}
	res, err := mdst.Run(eng, c, star, mdst.Multi, 0)
	if err != nil {
		t.Fatal(err)
	}
	note(checkMargin(t, "complete-128/star/multi", c, res.Report))

	c = graph.Wheel(256).Compile()
	if star, err = spanning.StarTree(c); err != nil {
		t.Fatal(err)
	}
	if res, err = mdst.Run(eng, c, star, mdst.Single, 0); err != nil {
		t.Fatal(err)
	}
	note(checkMargin(t, "wheel-256/star/single", c, res.Report))
	if got, w := res.Report.Messages, sim.Window(c, 1); got != 324_858 || got < 25*w {
		t.Errorf("wheel-256 star Single delivered %d messages, want 324,858 (%d windows of %d)", got, got/w, w)
	}
	t.Logf("largest round 0: %.3f·n·(n+m); largest later round: %.3f·(n+m)", top0, topK)
}
