package main

import (
	"os"
	"testing"

	"mdegst"
	"mdegst/internal/sim"
)

// toys are every workload kind at toy size. The tables toy regenerates
// every table at the smallest scale, so each exp.<id>.s is measured.
var toys = []workload{
	{name: "gnm-64", gen: func() *mdegst.Graph { return mdegst.Gnm(64, 192, 1) }, mode: mdegst.ModeHybrid},
	{name: "ba-64", gen: func() *mdegst.Graph { return mdegst.BarabasiAlbert(64, 2, 1) }, mode: mdegst.ModeHybrid},
	{name: "grid-64", gen: func() *mdegst.Graph { return mdegst.Grid(8, 8) }, mode: mdegst.ModeSingle},
	{name: "gnm-48-dist2", gen: func() *mdegst.Graph { return mdegst.Gnm(48, 144, 1) }, mode: mdegst.ModeHybrid, procs: 2},
	{name: "tables-tiny", exp: mdegst.ExperimentOptions{Seeds: 1, Scale: warmScale, Parallel: 1}},
}

// TestMain registers the toys and lets the test binary serve as the
// benchmark's child process, so the tests drive the real parent path.
func TestMain(m *testing.M) {
	workloads = append(workloads, toys...)
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestToyWorkloads(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	inSpec := map[string]string{"fail_rate": "fraction"} // 0 when all is well, so not a bounded metric
	for _, m := range append(sp.EndToEnd, sp.PerLayer...) {
		inSpec[m.Name] = m.Unit
	}
	measured := map[string]bool{}
	for _, w := range toys {
		r, err := spawn(w.name, 3, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed != 0 || r.Attempted < minSolves {
			t.Errorf("%s: %d of %d attempts failed: %v", w.name, r.Failed, r.Attempted, r.Errors)
		}
		for _, trace := range []bool{false, true} {
			if _, err := resultLine(r, sp, trace); err != nil {
				t.Errorf("result line: %v", err)
			}
		}
		for name, s := range r.Metrics {
			if unit, ok := inSpec[name]; !ok || unit != s.Unit {
				t.Errorf("%s: metric %s in %s is not in BENCHMARK.json with that unit", w.name, name, s.Unit)
			}
			measured[name] = true
		}
	}
	for _, m := range sp.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured on no toy workload", m.Name)
		}
	}
	if len(sp.Workloads) != len(workloads)-len(toys) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(sp.Workloads), len(workloads)-len(toys))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("BENCHMARK.json workload %d is %s, the benchmark's %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestPhaseTableCoversSchema pins the opcode-to-phase table to the
// registered mdst vocabulary in both directions.
func TestPhaseTableCoversSchema(t *testing.T) {
	kinds := map[string]bool{}
	for _, s := range sim.Schemas() {
		if s.Proto() != "mdst" {
			continue
		}
		for i := 0; i < s.Len(); i++ {
			kind := s.Spec(i).Kind
			kinds[kind] = true
			if _, ok := phaseOfKind[kind]; !ok {
				t.Errorf("mdst opcode %s has no phase", kind)
			}
		}
	}
	for kind := range phaseOfKind {
		if !kinds[kind] {
			t.Errorf("phase table names %s, which the mdst schema does not register", kind)
		}
	}
}

// TestSeedKeepsExecution checks the claim the seeded relabelling rests
// on: every seed solves to the same summary.
func TestSeedKeepsExecution(t *testing.T) {
	for _, w := range toys[:3] {
		var k checker
		for seed := int64(1); seed <= 3; seed++ {
			c, _, _, err := build(w, seed)
			if err != nil {
				t.Fatal(err)
			}
			s, err := solveLocal(c, w.mode, 0)
			if err == nil {
				err = k.check(s)
			}
			if err != nil {
				t.Errorf("%s seed %d: %v", w.name, seed, err)
			}
		}
	}
}

// TestQuartiles pins the quartiles to Python's
// statistics.quantiles(xs, n=4), the method the bounds are checked with.
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	bound := specMetric{Name: "solve_s", Better: "lower", Bound: 0.1}
	tight := func(m float64) stat { return stat{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5} }
	wide := func(m float64) stat { return stat{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 5} }
	for _, c := range []struct {
		a, b   stat
		av, bv []float64
		want   string
	}{
		{tight(1), tight(1.05), nil, nil, "same"},
		{tight(1), tight(1.2), nil, nil, "worse"},
		{tight(1), tight(0.8), nil, nil, "better"},
		{wide(1), wide(1.05), nil, nil, "unresolved"},
		{wide(1), wide(2), []float64{0.9, 1, 1.1}, []float64{1.8, 2, 2.2}, "worse"},
	} {
		if got := verdict(c.a, c.b, c.av, c.bv, bound); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.a, c.b, got, c.want)
		}
	}
	higher := specMetric{Better: "higher", Bound: 0.1}
	if got := verdict(tight(1), tight(1.2), nil, nil, higher); got != "better" {
		t.Errorf("higher-is-better verdict = %s, want better", got)
	}
}

func TestTableCounts(t *testing.T) {
	ts := []*mdegst.ExperimentTable{{
		Header: []string{"n", "k*", "messages", "causal depth", "msgs/round/m"},
		Rows:   [][]string{{"8", "2", "424", "113", "2.95"}, {"16", "3", "1.25e+03", "-", "3.26"}},
	}}
	r := &run{Metrics: map[string]stat{}}
	tableCounts(ts, r)
	want := map[string]float64{"final_degree": 5, "messages": 1674, "causal_depth": 113}
	for name, v := range want {
		if got := r.Metrics[name].Median; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("metrics %v, want only %v", r.Metrics, want)
	}
}
