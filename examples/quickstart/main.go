// Quickstart: build a random network, construct a spanning tree with a
// distributed protocol, improve its maximum degree with the paper's
// algorithm, and print what happened.
package main

import (
	"fmt"
	"log"

	"mdegst"
)

func main() {
	// A 64-node random network, connected, average degree ~6.
	g := mdegst.Gnp(64, 0.1, 42)
	fmt.Printf("network: %d nodes, %d edges, max degree %d\n", g.N(), g.M(), g.MaxDegree())

	// Full pipeline with defaults: flooding spanning tree (BFS under unit
	// delays), then the paper's improvement protocol in Single mode.
	res, err := mdegst.Run(g, mdegst.Options{Mode: mdegst.ModeHybrid})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("initial spanning tree degree: %d\n", res.InitialDegree)
	fmt.Printf("improved spanning tree degree: %d\n", res.FinalDegree)
	fmt.Printf("lower bound on the optimum:    %d\n", mdegst.DegreeLowerBound(g))
	fmt.Printf("rounds: %d, exchanges: %d\n", res.Rounds, res.Swaps)
	fmt.Printf("messages: %d setup + %d improvement = %d total\n",
		res.Setup.Messages, res.Improvement.Messages, res.Total.Messages)
	fmt.Printf("time (causal depth under unit delays): %d\n", res.Total.CausalDepth)

	// The final tree is a regular rooted tree: walk it.
	fmt.Printf("root: %d, height: %d\n", res.Final.Index().ID(res.Final.Root()), res.Final.Height())
	hist := res.Final.DegreeHistogram()
	for d := 1; d <= res.FinalDegree; d++ {
		if hist[d] > 0 {
			fmt.Printf("  %3d nodes of degree %d\n", hist[d], d)
		}
	}
}
