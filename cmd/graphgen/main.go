// Command graphgen generates workload graphs in the module's edge-list
// format, or inspects an existing one.
//
// Usage:
//
//	graphgen -family gnp -n 100 -p 0.1 -seed 3 > net.edges
//	graphgen -family wheel -n 32 -out wheel.edges
//	graphgen -inspect net.edges
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"mdegst"
	"mdegst/internal/graph"
)

func main() {
	var (
		family  = flag.String("family", "gnp", "gnp|gnm|ba|geo|tree|hamchords|ring|star|wheel|complete|grid|torus|hypercube|caterpillar|lollipop|bipartite")
		n       = flag.Int("n", 64, "nodes")
		m       = flag.Int("m", 0, "edges (gnm; default 3n)")
		p       = flag.Float64("p", 0.1, "edge probability (gnp)")
		k       = flag.Int("k", 2, "secondary parameter (ba attachment, chords, legs, clique, part size, cols)")
		radius  = flag.Float64("radius", 0.25, "connection radius (geo)")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "", "output file (default stdout)")
		inspect = flag.String("inspect", "", "print statistics of an edge-list file instead of generating")
	)
	flag.Parse()

	if *inspect != "" {
		if err := inspectFile(*inspect); err != nil {
			fatal(err)
		}
		return
	}

	g, err := generate(*family, *n, *m, *p, *k, *radius, *seed)
	if err != nil {
		fatal(err)
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		fatal(err)
	}
}

func generate(family string, n, m int, p float64, k int, radius float64, seed int64) (*mdegst.Graph, error) {
	if m == 0 {
		m = 3 * n
	}
	switch family {
	case "gnp":
		return mdegst.Gnp(n, p, seed), nil
	case "gnm":
		return mdegst.Gnm(n, m, seed), nil
	case "ba":
		return mdegst.BarabasiAlbert(n, k, seed), nil
	case "geo":
		return mdegst.RandomGeometric(n, radius, seed), nil
	case "tree":
		return mdegst.RandomTree(n, seed), nil
	case "hamchords":
		return mdegst.HamiltonianPlusChords(n, k*n, seed), nil
	case "ring":
		return mdegst.Ring(n), nil
	case "star":
		return mdegst.StarGraph(n), nil
	case "wheel":
		return mdegst.Wheel(n), nil
	case "complete":
		return mdegst.Complete(n), nil
	case "grid":
		return mdegst.Grid(n, max(k, 2)), nil
	case "torus":
		return mdegst.Torus(n, max(k, 3)), nil
	case "hypercube":
		return mdegst.Hypercube(n), nil
	case "caterpillar":
		return mdegst.Caterpillar(n, k), nil
	case "lollipop":
		return mdegst.Lollipop(max(k, 3), n), nil
	case "bipartite":
		return mdegst.CompleteBipartite(n, max(k, 1)), nil
	default:
		return nil, fmt.Errorf("unknown family %q", family)
	}
}

func inspectFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	g, err := graph.ReadEdgeList(f)
	if err != nil {
		return err
	}
	c := g.Compile()
	fmt.Printf("nodes:      %d\n", c.N())
	fmt.Printf("edges:      %d\n", c.M())
	fmt.Printf("connected:  %v\n", g.IsConnected())
	fmt.Printf("max degree: %d\n", c.MaxDegree())
	fmt.Printf("min degree: %d\n", g.MinDegree())
	printDegreeTail(c)
	printPartitionStats(c)
	if g.IsConnected() {
		fmt.Printf("diameter:   %d\n", g.Diameter())
		fmt.Printf("Δ* lower bound: %d\n", mdegst.DegreeLowerBound(g))
	}
	return nil
}

// printPartitionStats reports, for each shipped partitioner at typical
// process counts, the numbers that decide how an mdstd cluster's partition
// performs: the cut fraction (share of messages crossing processes under
// uniform edge load), the boundary-node count (states whose sends can
// leave their shard — total and the worst shard's share), and the size
// imbalance (the straggler factor of a round barrier).
func printPartitionStats(c *mdegst.CompiledGraph) {
	if c.N() < 2 || c.M() == 0 {
		return
	}
	strategies := []struct {
		name string
		mk   func(*mdegst.CompiledGraph, int) *graph.Partition
	}{
		{"contiguous", graph.PartitionContiguous},
		{"bfs", graph.PartitionBFS},
		{"refined", graph.PartitionRefined},
	}
	for _, k := range []int{2, 4, 8} {
		if k > c.N() {
			break
		}
		for _, s := range strategies {
			p := s.mk(c, k)
			boundary := p.BoundaryNodes(c)
			total, max := 0, 0
			for _, b := range boundary {
				total += b
				if b > max {
					max = b
				}
			}
			fmt.Printf("partition k=%d %-10s cut %5.1f%% (%d of %d edges)  boundary %d nodes (max shard %d)  imbalance %.2f\n",
				k, s.name+":", 100*p.CutFraction(), p.CutEdges(), c.M(), total, max, p.Imbalance())
		}
	}
}

// printDegreeTail summarises the degree distribution — the interesting part
// of heavy-tailed (preferential-attachment) workloads: the mean, the top
// degrees, and how much of the edge mass the top 1% of nodes carries.
func printDegreeTail(c *mdegst.CompiledGraph) {
	n := c.N()
	if n == 0 {
		return
	}
	degs := make([]int, n)
	for i := range degs {
		degs[i] = c.Degree(int32(i))
	}
	sort.Sort(sort.Reverse(sort.IntSlice(degs)))
	top := n / 100
	if top < 1 {
		top = 1
	}
	sum := 0
	for _, d := range degs[:top] {
		sum += d
	}
	half := 2 * c.M()
	fmt.Printf("mean degree: %.2f\n", float64(half)/float64(n))
	show := top
	if show > 5 {
		show = 5
	}
	fmt.Printf("top degrees: %v\n", degs[:show])
	if half > 0 {
		fmt.Printf("top 1%% of nodes carry %.1f%% of edge endpoints\n", 100*float64(sum)/float64(half))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "graphgen:", err)
	os.Exit(1)
}
