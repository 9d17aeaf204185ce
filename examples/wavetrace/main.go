// Wavetrace reproduces the paper's figures on a small example:
//
//   - Figure 1: one exchange lowering the maximum degree — printed as
//     before/after trees;
//   - Figure 2: the BFS wave — an ASCII timeline of the Cut, BFS, cousin
//     answers and BFSBack convergecast of the first improvement round.
//
// The graph is the 7-node example from Figure 1: root p of degree 3 whose
// fragments are joined by the outgoing edge (D,E).
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"mdegst"
)

func main() {
	// Figure 1's instance: p=0, x=1, x'=2, C=3, D=4, E=5 plus a third
	// child 6 so p has degree 3; the improving outgoing edge is (4,5).
	g := mdegst.NewGraph()
	for _, e := range [][2]mdegst.NodeID{
		{0, 1}, {0, 2}, {0, 6}, {1, 3}, {1, 4}, {4, 5}, {2, 5},
	} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			log.Fatal(err)
		}
	}
	t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialFlood, mdegst.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== Figure 1: the tree before improvement ===")
	fmt.Print(t0)

	// A TraceEvent's Msg is a flat value record; the timeline extracts the
	// rendered kind per event.
	type step struct {
		time     float64
		from, to mdegst.NodeID
		kind     string
	}
	var events []step
	res, err := mdegst.Improve(g, t0, mdegst.Options{
		Engine: mdegst.NewTracingEngine(func(e mdegst.TraceEvent) {
			events = append(events, step{time: e.Time, from: e.From, to: e.To, kind: e.Msg.Kind()})
		}),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n=== Figure 2: the wave, message by message (unit delays) ===")
	byTime := map[int][]string{}
	var times []int
	for _, e := range events {
		if !strings.HasPrefix(e.kind, "mdst.") {
			continue
		}
		short := strings.TrimPrefix(e.kind, "mdst.")
		tm := int(e.time)
		if len(byTime[tm]) == 0 {
			times = append(times, tm)
		}
		byTime[tm] = append(byTime[tm], fmt.Sprintf("%d->%d %s", e.from, e.to, short))
	}
	sort.Ints(times)
	for _, tm := range times {
		fmt.Printf("t=%3d  %s\n", tm, strings.Join(byTime[tm], "   "))
	}

	fmt.Println("\n=== Figure 1: the tree after the exchange ===")
	fmt.Print(res.Final)
	fmt.Printf("\nmaximum degree: %d -> %d (edge (4,5) added, a root edge removed)\n",
		res.InitialDegree, res.FinalDegree)
}
