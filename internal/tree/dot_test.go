package tree

import (
	"strings"
	"testing"

	"mdegst/internal/graph"
)

func TestWriteDOT(t *testing.T) {
	g, tr := buildSample(t)
	var b strings.Builder
	if err := tr.WriteDOT(&b, g); err != nil {
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
	_, tr := buildSample(t)
	var b strings.Builder
	if err := tr.WriteDOT(&b, nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "dashed") {
		t.Error("nil graph must omit non-tree edges")
	}
}

func TestWriteDOTRootIsHotSpot(t *testing.T) {
	// A star tree: the root is also the unique maximum-degree node.
	g := graph.Star(5)
	d, err := FromParentDense(g.Compile().Index(), 0, []int32{NoParent, 0, 0, 0, 0})
	if err != nil {
		t.Fatal(err)
	}
	tr := d.ToTree()
	var b strings.Builder
	if err := tr.WriteDOT(&b, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `fillcolor=red`) {
		t.Error("root that is also the hot spot should be red")
	}
}
