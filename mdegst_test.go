package mdegst_test

import (
	"fmt"
	"testing"
	"testing/quick"

	"mdegst"
)

func TestRunPipelineDefaults(t *testing.T) {
	g := mdegst.Gnp(40, 0.15, 3)
	res, err := mdegst.Run(g, mdegst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Final.Validate(mdegst.Compile(g)); err != nil {
		t.Fatal(err)
	}
	if res.FinalDegree > res.InitialDegree {
		t.Errorf("degree rose %d -> %d", res.InitialDegree, res.FinalDegree)
	}
	if res.Setup == nil || res.Improvement == nil {
		t.Fatal("missing phase reports")
	}
	if res.Total.Messages != res.Setup.Messages+res.Improvement.Messages {
		t.Errorf("total = %d, want %d + %d", res.Total.Messages, res.Setup.Messages, res.Improvement.Messages)
	}
}

func TestRunAllInitialTreeMethods(t *testing.T) {
	g := mdegst.Gnp(30, 0.2, 5)
	methods := []mdegst.InitialTree{
		mdegst.InitialFlood, mdegst.InitialDFS, mdegst.InitialGHS,
		mdegst.InitialElection, mdegst.InitialStar, mdegst.InitialRandom,
	}
	for _, m := range methods {
		t.Run(m.String(), func(t *testing.T) {
			res, err := mdegst.Run(g, mdegst.Options{Initial: m, Mode: mdegst.ModeHybrid, Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			if err := res.Final.Validate(mdegst.Compile(g)); err != nil {
				t.Fatal(err)
			}
			distributed := m != mdegst.InitialStar && m != mdegst.InitialRandom
			if distributed && res.Setup == nil {
				t.Error("distributed construction should report messages")
			}
			if !distributed && res.Setup != nil {
				t.Error("sequential construction should not report messages")
			}
		})
	}
}

func TestRunAllModesAllEngines(t *testing.T) {
	g := mdegst.BarabasiAlbert(24, 2, 7)
	for _, mode := range []mdegst.Mode{mdegst.ModeSingle, mdegst.ModeMulti, mdegst.ModeHybrid} {
		for name, eng := range map[string]mdegst.Engine{
			"unit":   mdegst.NewUnitEngine(),
			"random": mdegst.NewRandomDelayEngine(9),
			"async":  mdegst.NewAsyncEngine(),
		} {
			t.Run(fmt.Sprintf("%v/%s", mode, name), func(t *testing.T) {
				res, err := mdegst.Run(g, mdegst.Options{Mode: mode, Engine: eng, Initial: mdegst.InitialStar})
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Final.Validate(mdegst.Compile(g)); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestImproveMatchesSequentialTwin(t *testing.T) {
	g := mdegst.Wheel(20)
	t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialStar, mdegst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mdegst.Improve(g, t0, mdegst.Options{Mode: mdegst.ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	seq, rounds, swaps, err := mdegst.ImproveSequential(g, t0, mdegst.ModeHybrid)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Final.Equal(seq) {
		t.Error("distributed and sequential twin disagree")
	}
	if res.Rounds != rounds || res.Swaps != swaps {
		t.Errorf("rounds/swaps %d/%d, twin %d/%d", res.Rounds, res.Swaps, rounds, swaps)
	}
}

func TestQualityAgainstExact(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		g := mdegst.Gnm(10, 16, seed)
		opt, _, err := mdegst.ExactMinDegree(g)
		if err != nil {
			t.Fatal(err)
		}
		if lb := mdegst.DegreeLowerBound(g); lb > opt {
			t.Errorf("seed %d: lower bound %d exceeds optimum %d", seed, lb, opt)
		}
		res, err := mdegst.Run(g, mdegst.Options{Mode: mdegst.ModeHybrid, Initial: mdegst.InitialStar})
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalDegree < opt {
			t.Errorf("seed %d: beat the optimum?! %d < %d", seed, res.FinalDegree, opt)
		}
	}
}

func TestFurerRaghavachariFacade(t *testing.T) {
	g := mdegst.Wheel(16)
	t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialStar, mdegst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	improved, swaps, err := mdegst.FurerRaghavachari(g, t0)
	if err != nil {
		t.Fatal(err)
	}
	if err := improved.Validate(mdegst.Compile(g)); err != nil {
		t.Fatal(err)
	}
	if swaps == 0 {
		t.Error("hub star of a wheel must be improvable")
	}
}

// Property: the end-to-end pipeline yields a valid spanning tree whose
// degree is bounded by the initial one, on random workloads.
func TestQuickPipelineInvariants(t *testing.T) {
	f := func(nRaw, extraRaw uint8, seed int64) bool {
		n := 5 + int(nRaw%40)
		m := n - 1 + int(extraRaw)%(2*n)
		g := mdegst.Gnm(n, m, seed)
		res, err := mdegst.Run(g, mdegst.Options{Mode: mdegst.ModeHybrid, Initial: mdegst.InitialStar, Seed: seed})
		if err != nil {
			return false
		}
		if res.Final.Validate(mdegst.Compile(g)) != nil {
			return false
		}
		return res.FinalDegree <= res.InitialDegree && res.FinalDegree >= mdegst.DegreeLowerBound(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func ExampleRun() {
	g := mdegst.Wheel(10)
	res, _ := mdegst.Run(g, mdegst.Options{Initial: mdegst.InitialStar})
	fmt.Println("degree:", res.InitialDegree, "->", res.FinalDegree)
	// Output: degree: 9 -> 2
}
