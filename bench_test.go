package mdegst_test

// The benchmark harness: one benchmark per experiment table/figure from
// DESIGN.md §4 (regenerating the table and reporting its headline metric),
// plus end-to-end pipeline benchmarks over the workload families. Full-size
// tables are produced by cmd/mdstbench; these benches run the same drivers
// at reduced scale so `go test -bench=.` exercises every experiment.

import (
	"fmt"
	"strconv"
	"testing"

	"mdegst"
	"mdegst/internal/exp"
)

func benchConfig() exp.Config { return exp.Config{Seeds: 2, Scale: 0.5} }

// benchExperiment runs one experiment on a single worker per iteration.
func benchExperiment(b *testing.B, id string) {
	r := &exp.Runner{Config: benchConfig(), Parallel: 1}
	var rows int
	for i := 0; i < b.N; i++ {
		tables, err := r.Run([]string{id})
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tables[0].Rows)
	}
	b.ReportMetric(float64(rows), "rows")
}

func BenchmarkE1Rounds(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2Quality(b *testing.B)     { benchExperiment(b, "E2") }
func BenchmarkE3Messages(b *testing.B)    { benchExperiment(b, "E3") }
func BenchmarkE4Time(b *testing.B)        { benchExperiment(b, "E4") }
func BenchmarkE5WorstCase(b *testing.B)   { benchExperiment(b, "E5") }
func BenchmarkE6Bits(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7Phases(b *testing.B)      { benchExperiment(b, "E7") }
func BenchmarkE8LowerBound(b *testing.B)  { benchExperiment(b, "E8") }
func BenchmarkE9InitialTree(b *testing.B) { benchExperiment(b, "E9") }
func BenchmarkE10Broadcast(b *testing.B)  { benchExperiment(b, "E10") }
func BenchmarkA1MultiRoot(b *testing.B)   { benchExperiment(b, "A1") }
func BenchmarkA2Twin(b *testing.B)        { benchExperiment(b, "A2") }
func BenchmarkA3Engines(b *testing.B)     { benchExperiment(b, "A3") }

// BenchmarkF2WaveTrace regenerates the Figure 2 message timeline (one
// improvement round on the Figure 1 instance) per iteration.
func BenchmarkF2WaveTrace(b *testing.B) {
	g := mdegst.NewGraph()
	for _, e := range [][2]mdegst.NodeID{
		{0, 1}, {0, 2}, {0, 6}, {1, 3}, {1, 4}, {4, 5}, {2, 5},
	} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			b.Fatal(err)
		}
	}
	t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialFlood, mdegst.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var traced int
	for i := 0; i < b.N; i++ {
		n := 0
		eng := mdegst.NewTracingEngine(func(mdegst.TraceEvent) { n++ })
		res, err := mdegst.Improve(g, t0, mdegst.Options{Engine: eng})
		if err != nil {
			b.Fatal(err)
		}
		if res.FinalDegree != 2 {
			b.Fatalf("figure 1 exchange failed: degree %d", res.FinalDegree)
		}
		traced = n
	}
	b.ReportMetric(float64(traced), "events")
}

// BenchmarkPipeline measures the full distributed pipeline per family/size.
func BenchmarkPipeline(b *testing.B) {
	families := []struct {
		name string
		gen  func(n int) *mdegst.Graph
	}{
		{"gnp", func(n int) *mdegst.Graph { return mdegst.Gnp(n, 12.0/float64(n), 1) }},
		{"ba", func(n int) *mdegst.Graph { return mdegst.BarabasiAlbert(n, 2, 1) }},
		{"wheel", func(n int) *mdegst.Graph { return mdegst.Wheel(n) }},
	}
	for _, f := range families {
		for _, n := range []int{32, 64, 128} {
			g := f.gen(n)
			b.Run(fmt.Sprintf("%s/n=%d", f.name, n), func(b *testing.B) {
				var msgs, rounds int64
				for i := 0; i < b.N; i++ {
					res, err := mdegst.Run(g, mdegst.Options{Initial: mdegst.InitialStar, Mode: mdegst.ModeHybrid})
					if err != nil {
						b.Fatal(err)
					}
					msgs = res.Total.Messages
					rounds = int64(res.Rounds)
				}
				b.ReportMetric(float64(msgs), "msgs")
				b.ReportMetric(float64(rounds), "rounds")
			})
		}
	}
}

// BenchmarkModes compares the three protocol variants on one workload.
func BenchmarkModes(b *testing.B) {
	g := mdegst.BarabasiAlbert(96, 2, 5)
	t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialStar, mdegst.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []mdegst.Mode{mdegst.ModeSingle, mdegst.ModeMulti, mdegst.ModeHybrid} {
		b.Run(mode.String(), func(b *testing.B) {
			var msgs int64
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := mdegst.Improve(g, t0, mdegst.Options{Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				msgs, rounds = res.Improvement.Messages, res.Rounds
			}
			b.ReportMetric(float64(msgs), "msgs")
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkEngines compares the simulation engines on the same protocol run.
func BenchmarkEngines(b *testing.B) {
	g := mdegst.Gnm(96, 288, 9)
	t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialStar, mdegst.Options{})
	if err != nil {
		b.Fatal(err)
	}
	engines := map[string]func() mdegst.Engine{
		"event-unit":   mdegst.NewUnitEngine,
		"event-random": func() mdegst.Engine { return mdegst.NewRandomDelayEngine(3) },
		"async":        mdegst.NewAsyncEngine,
	}
	for name, mk := range engines {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mdegst.Improve(g, t0, mdegst.Options{Mode: mdegst.ModeHybrid, Engine: mk()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLargeFlood measures raw engine throughput at the scale the
// bounded-delay schedulers unlocked: distributed flood spanning-tree
// construction over 4k–1M-node workloads on one compiled snapshot. The
// same graphs carry allocation budgets in internal/spanning's
// TestFloodAllocBudget.
func BenchmarkLargeFlood(b *testing.B) {
	for _, w := range []struct {
		name string
		gen  func() *mdegst.Graph
	}{
		{"gnm-4096", func() *mdegst.Graph { return mdegst.Gnm(4096, 16384, 1) }},
		{"ba-16384", func() *mdegst.Graph { return mdegst.BarabasiAlbert(16384, 2, 1) }},
		{"grid-100k", func() *mdegst.Graph { return mdegst.Grid(316, 316) }},
		{"grid-1M", func() *mdegst.Graph { return mdegst.Grid(1000, 1000) }},
	} {
		b.Run(w.name, func(b *testing.B) {
			c := mdegst.Compile(w.gen())
			b.ResetTimer()
			var msgs int64
			for i := 0; i < b.N; i++ {
				tr, rep, err := mdegst.BuildSpanningTreeCompiled(c, mdegst.InitialFlood, mdegst.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if tr == nil {
					b.Fatal("no tree built")
				}
				msgs = rep.Messages
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkSequentialTwin measures the oracle's speed (the fast path for
// large sweeps).
func BenchmarkSequentialTwin(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		g := mdegst.Gnm(n, 3*n, 2)
		t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialStar, mdegst.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := mdegst.ImproveSequential(g, t0, mdegst.ModeHybrid); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExact measures the ground-truth solver at its size limit, and
// on K_{3,8}, whose search refutes caps 2 and 3 before finding Δ* = 4.
func BenchmarkExact(b *testing.B) {
	run := func(name string, g *mdegst.Graph) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := mdegst.ExactMinDegree(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	for _, n := range []int{8, 12, 16} {
		run("n="+strconv.Itoa(n), mdegst.Gnm(n, 2*n, 4))
	}
	run("bipart-3x8", mdegst.CompleteBipartite(3, 8))
}
