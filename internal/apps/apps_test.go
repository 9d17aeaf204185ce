package apps

import (
	"testing"

	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

func unit() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay} }

func TestBroadcastReachesEveryone(t *testing.T) {
	g := graph.Gnp(40, 0.15, 1)
	st, err := spanning.BFSTree(g, g.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(unit(), g.Compile(), Config{Tree: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != g.N() {
		t.Errorf("delivered %d of %d", res.Delivered, g.N())
	}
	if res.Report.Messages != int64(g.N()-1) {
		t.Errorf("messages = %d, want n-1 = %d", res.Report.Messages, g.N()-1)
	}
	if res.Depth != st.Height() {
		t.Errorf("depth %d, tree height %d", res.Depth, st.Height())
	}
}

func TestBroadcastLoadIsRootDegreeBound(t *testing.T) {
	g := graph.Star(12)
	st, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(unit(), g.Compile(), Config{Tree: st})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxLoad != 11 {
		t.Errorf("hub load = %d, want 11", res.MaxLoad)
	}
}

func TestConvergecastSum(t *testing.T) {
	g := graph.Grid(5, 5)
	st, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(unit(), g.Compile(), Config{
		Tree:  st,
		Ack:   true,
		Value: func(id sim.NodeID) int64 { return int64(id) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, v := range g.Nodes() {
		want += int64(v)
	}
	if res.Sum != want {
		t.Errorf("sum = %d, want %d", res.Sum, want)
	}
	if res.Report.Messages != int64(2*(g.N()-1)) {
		t.Errorf("messages = %d, want 2(n-1) = %d", res.Report.Messages, 2*(g.N()-1))
	}
}

// TestImprovementReducesMeasuredLoad is the measured version of the paper's
// motivation: run the broadcast before and after the MDegST improvement and
// compare hot-spot loads on the simulator, not analytically.
func TestImprovementReducesMeasuredLoad(t *testing.T) {
	g := graph.BarabasiAlbert(80, 2, 3)
	before, err := spanning.StarTree(g)
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := fr.Twin(g, before, mdst.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	resBefore, err := Run(unit(), g.Compile(), Config{Tree: before})
	if err != nil {
		t.Fatal(err)
	}
	resAfter, err := Run(unit(), g.Compile(), Config{Tree: after})
	if err != nil {
		t.Fatal(err)
	}
	if resAfter.MaxLoad >= resBefore.MaxLoad {
		t.Errorf("improvement did not reduce the hot spot: %d -> %d", resBefore.MaxLoad, resAfter.MaxLoad)
	}
	kb, _ := before.MaxDegree()
	ka, _ := after.MaxDegree()
	if resBefore.MaxLoad > int64(kb) || resAfter.MaxLoad > int64(ka) {
		t.Errorf("measured load exceeds the degree bound: %d>%d or %d>%d", resBefore.MaxLoad, kb, resAfter.MaxLoad, ka)
	}
}

func TestBroadcastOnAsyncEngine(t *testing.T) {
	g := graph.Gnp(30, 0.2, 9)
	st, err := spanning.BFSTree(g, g.Nodes()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(&sim.AsyncEngine{}, g.Compile(), Config{Tree: st, Ack: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != g.N() || res.Sum != int64(g.N()) {
		t.Errorf("delivered=%d sum=%d", res.Delivered, res.Sum)
	}
}

func TestRejectsForeignTree(t *testing.T) {
	g := graph.Ring(6)
	other := graph.Ring(8)
	st, err := spanning.BFSTree(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(unit(), g.Compile(), Config{Tree: st}); err == nil {
		t.Error("tree of a different graph accepted")
	}
}
