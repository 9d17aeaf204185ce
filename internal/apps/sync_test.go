package apps

import (
	"testing"

	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

func syncEngines() map[string]sim.Engine {
	return map[string]sim.Engine{
		"event-unit":   &sim.EventEngine{Delay: sim.UnitDelay},
		"event-random": &sim.EventEngine{Delay: sim.UniformDelay(0.05), Seed: 3, FIFO: true},
		"async":        &sim.AsyncEngine{},
	}
}

// TestSyncBFSDistances: the synchronized BFS must compute exact BFS layers
// on an asynchronous network, whatever the delays.
func TestSyncBFSDistances(t *testing.T) {
	g := graph.Gnp(36, 0.15, 8)
	source := g.Nodes()[0]
	st, err := spanning.BFSTree(g, source)
	if err != nil {
		t.Fatal(err)
	}
	want := bfsDistances(g, source)
	for name, eng := range syncEngines() {
		t.Run(name, func(t *testing.T) {
			res, err := RunSync(eng, g.Compile(), SyncConfig{Tree: st, NewMachine: NewBFSMachine(source)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("execution truncated")
			}
			for id, m := range res.Machines {
				if got := m.(*BFSMachine).Dist; got != int64(want[id]) {
					t.Errorf("node %d: dist %d, want %d", id, got, want[id])
				}
			}
			// Layered BFS needs eccentricity+O(1) pulses.
			ecc := g.Eccentricity(source)
			if res.Rounds < ecc+1 || res.Rounds > ecc+3 {
				t.Errorf("rounds = %d, eccentricity %d", res.Rounds, ecc)
			}
		})
	}
}

func bfsDistances(g *graph.Graph, src graph.NodeID) map[graph.NodeID]int {
	dist := map[graph.NodeID]int{src: 0}
	queue := []graph.NodeID{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(u) {
			if _, ok := dist[w]; !ok {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// TestSyncControlLoadFollowsTreeDegree: the synchronizer's per-pulse control
// hot spot is the tree degree, so a MDegST control tree beats a star tree —
// the "Network Synchronization" motivation measured.
func TestSyncControlLoadFollowsTreeDegree(t *testing.T) {
	g := graph.BarabasiAlbert(60, 2, 5)
	source := g.Nodes()[0]
	star, err := spanning.StarTree(g)
	if err != nil {
		t.Fatal(err)
	}
	improved, _, err := fr.Twin(g, star, mdst.Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	runOn := func(ctrl *tree.Tree) *SyncResult {
		res, err := RunSync(&sim.EventEngine{Delay: sim.UnitDelay}, g.Compile(), SyncConfig{
			Tree:       ctrl,
			NewMachine: NewBFSMachine(source),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	starRes := runOn(star)
	improvedRes := runOn(improved)
	kStar, _ := star.MaxDegree()
	kImp, _ := improved.MaxDegree()
	if kImp >= kStar {
		t.Fatalf("setup: improvement did not help (%d vs %d)", kImp, kStar)
	}
	// The pulse/safe traffic per round at the hot spot scales with its
	// tree degree; with dozens of pulses the totals must reflect it.
	if improvedRes.Report.MaxSentByNode() >= starRes.Report.MaxSentByNode() {
		t.Errorf("control hot spot not reduced: star %d, improved %d",
			starRes.Report.MaxSentByNode(), improvedRes.Report.MaxSentByNode())
	}
}

func TestSyncTruncation(t *testing.T) {
	g := graph.Ring(8)
	st, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSync(&sim.EventEngine{Delay: sim.UnitDelay}, g.Compile(), SyncConfig{
		Tree:       st,
		NewMachine: func(id sim.NodeID, ns []sim.NodeID) Machine { return neverDone{} },
		MaxRounds:  5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated || res.Rounds != 5 {
		t.Errorf("truncated=%v rounds=%d, want true and 5", res.Truncated, res.Rounds)
	}
}

// neverDone keeps the synchronizer pulsing forever (until the cap).
type neverDone struct{}

func (neverDone) Pulse(int, map[sim.NodeID]int64) (map[sim.NodeID]int64, bool) {
	return nil, false
}

func TestSyncConfigErrors(t *testing.T) {
	g := graph.Ring(5)
	st, err := spanning.BFSTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSync(&sim.EventEngine{}, g.Compile(), SyncConfig{Tree: st}); err == nil {
		t.Error("missing machine constructor accepted")
	}
	other := graph.Ring(9)
	stOther, err := spanning.BFSTree(other, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSync(&sim.EventEngine{}, g.Compile(), SyncConfig{Tree: stOther, NewMachine: NewBFSMachine(0)}); err == nil {
		t.Error("foreign tree accepted")
	}
}
