package tree

import (
	"strings"
	"testing"

	"mdegst/internal/graph"
)

func TestWriteDOT(t *testing.T) {
	c, d := sampleDense(t)
	var b strings.Builder
	if err := d.WriteDOT(&b, c); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"graph spanningtree {",
		"0 -- 1 [penwidth=2];",                 // tree edge
		"3 -- 4 [style=dashed",                 // non-tree edge
		"0 [style=filled fillcolor=lightblue]", // root
		"1 [style=filled fillcolor=salmon]",    // max degree node
		"max degree 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output misses %q:\n%s", want, out)
		}
	}
}

func TestWriteDOTWithoutGraph(t *testing.T) {
	_, d := sampleDense(t)
	var b strings.Builder
	if err := d.WriteDOT(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "dashed") {
		t.Error("nil graph must omit non-tree edges")
	}
}

func TestWriteDOTRootIsHotSpot(t *testing.T) {
	// A star tree: the root is also the unique maximum-degree node.
	c := graph.Star(5).Compile()
	d, err := FromParentDense(c.Index(), 0, []int32{NoParent, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := d.WriteDOT(&b, c); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `fillcolor=red`) {
		t.Error("root that is also the hot spot should be red")
	}
}
