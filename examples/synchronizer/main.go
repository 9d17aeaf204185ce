// Synchronizer: the paper's first listed use of spanning trees is "Network
// Synchronization". This example runs a synchronous algorithm (layered BFS)
// on a fully asynchronous network using a beta synchronizer whose control
// tree is (a) a worst-case high-degree tree and (b) the MDegST-improved
// tree. The synchronizer's per-pulse convergecast loads the control tree's
// hottest node proportionally to its degree — improving the tree spreads
// the control traffic.
package main

import (
	"fmt"
	"log"

	"mdegst"
	"mdegst/internal/apps"
	"mdegst/internal/sim"
)

func main() {
	g := mdegst.BarabasiAlbert(120, 2, 13)
	source := g.Nodes()[0]

	star, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialStar, mdegst.Options{})
	if err != nil {
		log.Fatal(err)
	}
	improvedRes, err := mdegst.Improve(g, star, mdegst.Options{Mode: mdegst.ModeHybrid})
	if err != nil {
		log.Fatal(err)
	}
	improved := improvedRes.Final

	kStar, _ := star.MaxDegree(nil)
	kImp, _ := improved.MaxDegree(nil)
	fmt.Printf("network: n=%d m=%d; control trees: star degree %d, improved degree %d\n\n",
		g.N(), g.M(), kStar, kImp)

	c := g.Compile()
	fmt.Printf("%-22s %8s %10s %16s %12s\n",
		"control tree", "pulses", "messages", "hot-spot sends", "BFS correct")
	for _, tc := range []struct {
		name string
		ctrl *mdegst.Tree
	}{
		{"star (worst case)", star},
		{"MDegST (improved)", improved},
	} {
		res, err := apps.RunSync(&sim.AsyncEngine{}, c, apps.SyncConfig{
			Tree:       tc.ctrl,
			NewMachine: apps.NewBFSMachine(source),
		})
		if err != nil {
			log.Fatal(err)
		}
		for id, m := range res.Machines {
			if got, want := m.(*apps.BFSMachine).Dist, int64(depth(g, source, id)); got != want {
				log.Fatalf("BUG: %s control tree synchronized node %d to BFS distance %d, want %d", tc.name, id, got, want)
			}
		}
		fmt.Printf("%-22s %8d %10d %16d %12v\n",
			tc.name, res.Rounds, res.Report.Messages, res.Report.MaxSentByNode(), true)
	}
	fmt.Println("\nBoth control trees synchronize the BFS correctly on the truly")
	fmt.Println("concurrent engine; the improved tree spreads the per-pulse")
	fmt.Println("control traffic away from the hub.")
}

// depth computes the reference BFS distance.
func depth(g *mdegst.Graph, src, v mdegst.NodeID) int {
	dist := map[mdegst.NodeID]int{src: 0}
	queue := []mdegst.NodeID{src}
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
	return dist[v]
}
