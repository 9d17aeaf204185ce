package tree

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"mdegst/internal/graph"
)

// WriteDOT renders the tree in Graphviz DOT format by node identity,
// highlighting the root and the maximum-degree nodes, optionally drawing the
// non-tree edges of c, the snapshot the tree spans, dashed (pass nil to omit
// them).
func (d *Dense) WriteDOT(w io.Writer, c *graph.CSR) error {
	if _, err := fmt.Fprintln(w, "graph spanningtree {"); err != nil {
		return err
	}
	fmt.Fprintln(w, "  node [shape=circle];")
	maxDeg, maxNodes := d.MaxDegree(nil)
	hot := make([]bool, d.N())
	for _, i := range maxNodes {
		hot[i] = true
	}
	for i := int32(0); int(i) < d.N(); i++ {
		v := d.idx.ID(i)
		attrs := ""
		switch {
		case i == d.root && hot[i]:
			attrs = ` [style=filled fillcolor=red label="` + fmt.Sprintf("%d*", v) + `"]`
		case i == d.root:
			attrs = " [style=filled fillcolor=lightblue]"
		case hot[i]:
			attrs = " [style=filled fillcolor=salmon]"
		}
		fmt.Fprintf(w, "  %d%s;\n", v, attrs)
	}
	// Ascending dense pairs are ascending identity pairs.
	edges := make([][2]int32, 0, d.N())
	for i, p := range d.parent {
		if p != NoParent {
			edges = append(edges, [2]int32{min(int32(i), p), max(int32(i), p)})
		}
	}
	slices.SortFunc(edges, func(a, b [2]int32) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	for _, e := range edges {
		fmt.Fprintf(w, "  %d -- %d [penwidth=2];\n", d.idx.ID(e[0]), d.idx.ID(e[1]))
	}
	if c != nil {
		for _, e := range c.DenseEdges(nil) {
			if !d.HasEdge(e[0], e[1]) {
				fmt.Fprintf(w, "  %d -- %d [style=dashed color=gray];\n", d.idx.ID(e[0]), d.idx.ID(e[1]))
			}
		}
	}
	fmt.Fprintf(w, "  label=\"max degree %d\";\n", maxDeg)
	_, err := fmt.Fprintln(w, "}")
	return err
}
