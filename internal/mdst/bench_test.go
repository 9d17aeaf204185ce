package mdst_test

import (
	"fmt"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// BenchmarkImprovementRound isolates the per-round protocol cost: one round
// on a chain-optimal graph (k=2 stops immediately after SearchDegree).
func BenchmarkImprovementRound(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		g := graph.Ring(n)
		c := g.Compile()
		t0, err := spanning.BFSTree(c, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eng := &sim.EventEngine{Delay: sim.UnitDelay}
			for i := 0; i < b.N; i++ {
				if _, err := mdst.Run(eng, c, t0, mdst.Single, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullImprovement measures complete runs from the worst initial
// tree per mode.
func BenchmarkFullImprovement(b *testing.B) {
	g := graph.Gnm(128, 512, 7)
	c := g.Compile()
	t0, err := spanning.StarTree(c)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
		b.Run(mode.String(), func(b *testing.B) {
			eng := &sim.EventEngine{Delay: sim.UnitDelay}
			var msgs int64
			for i := 0; i < b.N; i++ {
				res, err := mdst.Run(eng, c, t0, mode, 0)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Report.Messages
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkPerMessage measures the improvement protocol's cost per
// delivered message from a flood start, in the modes the pipeline
// benchmark runs these graphs in: gnm in Hybrid mode at three sizes, whose
// ns/msg ratio shows how the per-message cost scales, and the 64x64 grid
// in Single mode. The flood tree is built outside the timer.
func BenchmarkPerMessage(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		mode mdst.Mode
	}{
		{"gnm-128", graph.Gnm(128, 384, 1), mdst.Hybrid},
		{"gnm-1k", graph.Gnm(1024, 3072, 1), mdst.Hybrid},
		{"gnm-4096", graph.Gnm(4096, 12288, 1), mdst.Hybrid},
		{"grid-4k", graph.Grid(64, 64), mdst.Single},
	} {
		b.Run(tc.name, func(b *testing.B) {
			c := tc.g.Compile()
			eng := &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}
			t0, _, err := spanning.Build(eng, c, spanning.NewFloodFactory(c, c.Index().ID(0)))
			if err != nil {
				b.Fatal(err)
			}
			var msgs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := mdst.Run(eng, c, t0, tc.mode, 0)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Report.Messages
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*msgs), "ns/msg")
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}
