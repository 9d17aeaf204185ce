package mdst

import (
	"fmt"
	"slices"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// TestPublishedDegrees holds the published degrees of DESIGN.md deviation
// 8 to their two invariants in Single and Hybrid runs on every engine tier,
// before every delivery (so at every round barrier too) and at the end:
//   - no node's pub exceeds its tree degree, so no qualifying edge is
//     skipped;
//   - across a non-tree edge whose ends are in the same round and both
//     know the published degrees, each end believes the other's pub, so
//     both decide alike whether to probe it.
func TestPublishedDegrees(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm96", graph.Gnm(96, 288, 1)},
		{"ba48", graph.BarabasiAlbert(48, 2, 1)},
		{"grid6x8", graph.Grid(6, 8)},
	}
	engines := []struct {
		name string
		mk   func(trace func(sim.TraceEvent)) sim.Engine
	}{
		{"event-unit", func(tr func(sim.TraceEvent)) sim.Engine {
			return &sim.EventEngine{Delay: sim.UnitDelay, Trace: tr}
		}},
		{"event-random-fifo", func(tr func(sim.TraceEvent)) sim.Engine {
			return &sim.EventEngine{Delay: sim.UniformDelay(0.2), Seed: 7, FIFO: true, Trace: tr}
		}},
		{"event-random", func(tr func(sim.TraceEvent)) sim.Engine {
			return &sim.EventEngine{Delay: sim.UniformDelay(0.2), Seed: 7, Trace: tr}
		}},
		{"reference", func(tr func(sim.TraceEvent)) sim.Engine { return &sim.ReferenceEngine{Trace: tr} }},
	}
	for _, gc := range graphs {
		c := gc.g.Compile()
		t0, _, err := spanning.Build(&sim.EventEngine{Delay: sim.UnitDelay}, c, spanning.NewFloodFactory(c, c.Index().ID(0)))
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []Mode{Single, Hybrid} {
			for _, ec := range engines {
				t.Run(fmt.Sprintf("%s/%v/%s", gc.name, mode, ec.name), func(t *testing.T) {
					nodes := make([]*Node, c.N())
					inner := NewFactory(c, mode, 0, t0)
					f := func(id sim.NodeID, nbrs []sim.NodeID) sim.Protocol {
						n := inner(id, nbrs).(*Node)
						nodes[c.Index().MustOf(id)] = n
						return n
					}
					compared := 0
					check := func(sim.TraceEvent) { compared += checkPublished(t, c, nodes) }
					if _, _, err := ec.mk(check).Run(c, f); err != nil {
						t.Fatal(err)
					}
					compared += checkPublished(t, c, nodes)
					if compared == 0 {
						t.Fatal("no belief was ever compared")
					}
				})
			}
		}
	}
}

// checkPublished checks the invariants of TestPublishedDegrees on the
// nodes' current states and returns the number of beliefs it compared.
func checkPublished(t *testing.T, c *graph.CSR, nodes []*Node) int {
	t.Helper()
	compared := 0
	for v, n := range nodes {
		if int(n.pub) > n.degree() {
			t.Fatalf("node %d in round %d publishes %d above its degree %d", n.id, n.round, n.pub, n.degree())
		}
		if !n.known {
			continue
		}
		for i, w := range c.Neighbors(int32(v)) {
			m := nodes[w]
			if !m.known || m.round != n.round || treeEdge(n, m) {
				continue
			}
			if n.belief[i] != int(m.pub) {
				t.Fatalf("round %d: node %d believes %d of neighbour %d, which publishes %d", n.round, n.id, n.belief[i], m.id, m.pub)
			}
			compared++
		}
	}
	return compared
}

// treeEdge reports whether either end's view holds the edge between n and
// m in the tree; mid-exchange the two views may differ.
func treeEdge(n, m *Node) bool {
	return n.hasParent && n.parent == m.id || m.hasParent && m.parent == n.id ||
		slices.Contains(n.children, m.id) || slices.Contains(m.children, n.id)
}
