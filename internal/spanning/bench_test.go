package spanning

import (
	"fmt"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// Benchmarks of the startup substrates: message counts and wall cost per
// construction on a common workload.
func BenchmarkConstruction(b *testing.B) {
	for _, n := range []int{64, 256} {
		g := graph.Gnm(n, 4*n, 1)
		c := g.Compile()
		root := g.Nodes()[0]
		protocols := []struct {
			name    string
			factory sim.Factory
		}{
			{"flood", NewFloodFactory(c, root)},
			{"dfs", NewDFSFactory(root)},
			{"ghs", NewGHSFactory()},
			{"election", NewElectionFactory()},
		}
		for _, p := range protocols {
			b.Run(fmt.Sprintf("%s/n=%d", p.name, n), func(b *testing.B) {
				var msgs int64
				for i := 0; i < b.N; i++ {
					_, rep, err := Build(&sim.EventEngine{Delay: sim.UnitDelay}, c, p.factory)
					if err != nil {
						b.Fatal(err)
					}
					msgs = rep.Messages
				}
				b.ReportMetric(float64(msgs), "msgs")
			})
		}
	}
}

// BenchmarkWilson measures the uniform spanning tree sampler.
func BenchmarkWilson(b *testing.B) {
	c := graph.Gnm(256, 1024, 2).Compile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RandomST(c, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
