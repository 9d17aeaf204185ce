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
		t0, err := spanning.BFSTree(g, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			eng := &sim.EventEngine{Delay: sim.UnitDelay}
			for i := 0; i < b.N; i++ {
				if _, err := improve(eng, g, t0, mdst.Single, 0); err != nil {
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
	t0, err := spanning.StarTree(g)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid} {
		b.Run(mode.String(), func(b *testing.B) {
			eng := &sim.EventEngine{Delay: sim.UnitDelay}
			var msgs int64
			for i := 0; i < b.N; i++ {
				res, err := improve(eng, g, t0, mode, 0)
				if err != nil {
					b.Fatal(err)
				}
				msgs = res.Report.Messages
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}
