// Degreecap: the paper's introduction motivates trees "in which the degree
// of a node ... cannot exceed a given value k". This example runs the
// improvement with a degree target: the protocol stops as soon as the tree
// is good enough, trading tree quality for protocol cost. The table shows
// the cost of each target level on a hubby network.
package main

import (
	"fmt"
	"log"

	"mdegst"
)

func main() {
	g := mdegst.BarabasiAlbert(150, 2, 21)
	t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialStar, mdegst.Options{})
	if err != nil {
		log.Fatal(err)
	}
	k0, _ := t0.MaxDegree(nil)
	fmt.Printf("network: n=%d m=%d; worst-case initial tree degree k=%d\n\n", g.N(), g.M(), k0)

	fmt.Printf("%-8s %10s %8s %8s %12s\n", "target", "final k", "rounds", "swaps", "messages")
	for _, target := range []int{0, 3, 4, 6, 8, 12, 16} {
		res, err := mdegst.Improve(g, t0, mdegst.Options{
			Mode:         mdegst.ModeHybrid,
			TargetDegree: target,
		})
		if err != nil {
			log.Fatal(err)
		}
		label := fmt.Sprintf("%d", target)
		if target == 0 {
			label = "none"
		}
		fmt.Printf("%-8s %10d %8d %8d %12d\n",
			label, res.FinalDegree, res.Rounds, res.Swaps, res.Improvement.Messages)
	}

	fmt.Println("\nA modest cap (say twice the optimum) costs a fraction of the")
	fmt.Println("messages of full optimisation — the protocol stops its rounds as")
	fmt.Println("soon as SearchDegree reports a maximum degree within the target.")
}
