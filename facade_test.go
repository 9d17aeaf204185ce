package mdegst_test

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"

	"mdegst"
	"mdegst/internal/tree"
)

func TestTargetDegreeOption(t *testing.T) {
	g := mdegst.BarabasiAlbert(80, 2, 19)
	t0, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialStar, mdegst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := mdegst.Improve(g, t0, mdegst.Options{Mode: mdegst.ModeHybrid})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := mdegst.Improve(g, t0, mdegst.Options{Mode: mdegst.ModeHybrid, TargetDegree: full.FinalDegree + 3})
	if err != nil {
		t.Fatal(err)
	}
	if capped.FinalDegree > full.FinalDegree+3 {
		t.Errorf("capped degree %d above target %d", capped.FinalDegree, full.FinalDegree+3)
	}
	if capped.Rounds >= full.Rounds {
		t.Errorf("capped run took %d rounds, full %d — the cap should stop earlier", capped.Rounds, full.Rounds)
	}
	if capped.Improvement.Messages >= full.Improvement.Messages {
		t.Errorf("capped run cost %d messages, full %d", capped.Improvement.Messages, full.Improvement.Messages)
	}
}

func TestBuildSpanningTreeErrors(t *testing.T) {
	if _, _, err := mdegst.BuildSpanningTree(mdegst.NewGraph(), mdegst.InitialFlood, mdegst.Options{}); err == nil {
		t.Error("empty graph accepted")
	}
	g := mdegst.Ring(5)
	if _, _, err := mdegst.BuildSpanningTree(g, mdegst.InitialTree(99), mdegst.Options{}); err == nil {
		t.Error("unknown method accepted")
	}
}

// TestImproveRejectsBadTree holds every facade entry point that takes a
// caller-supplied initial tree to the same input contract: a tree that is
// not a spanning tree of the graph — a tree of another graph, a forest, a
// tree with a non-graph edge — is an error, never a run.
func TestImproveRejectsBadTree(t *testing.T) {
	g := mdegst.Ring(6)
	c := mdegst.Compile(g)
	// links builds a tree over c's index from a dense parent table.
	links := func(parent ...int32) *mdegst.Tree {
		tr, err := tree.FromParentDense(c.Index(), 0, parent)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	// path is the spanning path 0-1-2-3-4-5 of the ring, rooted at 0.
	path := func() *mdegst.Tree { return links(tree.NoParent, 0, 1, 2, 3, 4) }
	other, _, err := mdegst.BuildSpanningTree(mdegst.Ring(8), mdegst.InitialFlood, mdegst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forest := path()
	forest.CutChild(2, 3)
	bad := map[string]*mdegst.Tree{
		"different graph": other,
		"forest":          forest,
		"non-edge parent": links(tree.NoParent, 0, 1, 0, 3, 4), // (3,0) is no ring edge
	}
	var ck bytes.Buffer
	if ok, err := mdegst.CheckpointImprove(c, path(), mdegst.Options{}, 0, &ck); err != nil || !ok {
		t.Fatalf("checkpoint of the valid tree: %v, written %v", err, ok)
	}
	entries := map[string]func(*mdegst.Tree) error{
		"Improve": func(tr *mdegst.Tree) error {
			_, err := mdegst.Improve(g, tr, mdegst.Options{})
			return err
		},
		"ImproveCompiled": func(tr *mdegst.Tree) error {
			_, err := mdegst.ImproveCompiled(c, tr, mdegst.Options{})
			return err
		},
		"CheckpointImprove": func(tr *mdegst.Tree) error {
			_, err := mdegst.CheckpointImprove(c, tr, mdegst.Options{}, 0, io.Discard)
			return err
		},
		"ResumeImprove": func(tr *mdegst.Tree) error {
			_, err := mdegst.ResumeImprove(c, tr, mdegst.Options{}, bytes.NewReader(ck.Bytes()))
			return err
		},
		"ImproveSequential": func(tr *mdegst.Tree) error {
			_, _, _, err := mdegst.ImproveSequential(g, tr, mdegst.ModeHybrid)
			return err
		},
		"FurerRaghavachari": func(tr *mdegst.Tree) error {
			_, _, err := mdegst.FurerRaghavachari(g, tr)
			return err
		},
	}
	for ename, run := range entries {
		if err := run(path()); err != nil {
			t.Errorf("%s: valid tree rejected: %v", ename, err)
		}
		for tname, tr := range bad {
			if err := run(tr); err == nil || !strings.Contains(err.Error(), "mdegst: initial tree invalid") {
				t.Errorf("%s: %s gave %v, want an invalid initial tree", ename, tname, err)
			}
		}
	}
}

// TestNamedGraphHypercubeCountsNodes pins -n as a node count for the
// hypercube: the largest hypercube that fits, and an error, before any
// allocation, where that would have more than 30 dimensions.
func TestNamedGraphHypercubeCountsNodes(t *testing.T) {
	for n, want := range map[int]int{2: 2, 64: 64, 100: 64} {
		g, _, err := mdegst.NamedGraph("hypercube", n, 0, 0, 0, 1)
		if err != nil || g.N() != want {
			t.Errorf("n=%d: %v (%v), want %d nodes", n, g, err, want)
		}
	}
	for _, n := range []int{1 << 31, math.MaxInt} {
		if _, _, err := mdegst.NamedGraph("hypercube", n, 0, 0, 0, 1); err == nil {
			t.Errorf("n=%d: a hypercube above dimension 30 accepted", n)
		}
	}
}

// TestNamedGraphRejectsSizes runs every family NamedGraph knows at its
// minimum size and one below it: the minimum builds a graph of at least
// that many nodes, and one below returns an error instead of the
// generator's panic. The gnm edge count, the ba attachment and the gnp
// probability are held to their ranges the same way.
func TestNamedGraphRejectsSizes(t *testing.T) {
	minN := map[string]int{
		"gnp": 2, "gnm": 2, "ba": 2, "geo": 2, "hamchords": 2, "wheel": 4,
		"ring": 3, "star": 2, "complete": 1, "grid": 4, "hypercube": 2,
	}
	for family, n := range minN {
		if g, _, err := mdegst.NamedGraph(family, n, 0, 0.5, 2, 1); err != nil || g.N() < n {
			t.Errorf("%s at its minimum n=%d: %v", family, n, err)
		}
		if _, _, err := mdegst.NamedGraph(family, n-1, 0, 0.5, 2, 1); err == nil {
			t.Errorf("%s at n=%d, below its minimum, built a graph", family, n-1)
		}
	}
	for _, tc := range []struct {
		family string
		n, m   int
		p      float64
		k      int
		ok     bool
	}{
		{"gnm", 10, 9, 0, 0, true},
		{"gnm", 10, 45, 0, 0, true},
		{"gnm", 10, 8, 0, 0, false},
		{"gnm", 10, 46, 0, 0, false},
		{"gnm", 10, 100, 0, 0, false},
		{"gnm", 4, 0, 0, 0, true}, // the default 3n, capped at the 6 edges of K4
		{"ba", 10, 0, 0, 1, true},
		{"ba", 10, 0, 0, 0, false},
		{"gnp", 10, 0, 1, 0, true},
		{"gnp", 10, 0, -0.1, 0, false},
		{"gnp", 10, 0, 1.5, 0, false},
		{"tree", 10, 0, 0, 0, false}, // graphgen's own family, unknown here
	} {
		g, _, err := mdegst.NamedGraph(tc.family, tc.n, tc.m, tc.p, tc.k, 1)
		if (err == nil) != tc.ok {
			t.Errorf("%+v: got error %v", tc, err)
		}
		if tc.ok && tc.family == "gnm" && tc.m > 0 && (err != nil || g.M() != tc.m) {
			t.Errorf("%+v: built %v edges, want %d", tc, g, tc.m)
		}
	}
}

func TestInitialTreeStrings(t *testing.T) {
	names := map[mdegst.InitialTree]string{
		mdegst.InitialFlood:    "flood",
		mdegst.InitialDFS:      "dfs",
		mdegst.InitialGHS:      "ghs",
		mdegst.InitialElection: "election",
		mdegst.InitialStar:     "star",
		mdegst.InitialRandom:   "random",
	}
	for it, want := range names {
		if it.String() != want {
			t.Errorf("%d renders %q, want %q", int(it), it.String(), want)
		}
	}
	if !strings.Contains(mdegst.InitialTree(42).String(), "42") {
		t.Error("unknown method should render its number")
	}
}

func TestTracingEngineFacade(t *testing.T) {
	g := mdegst.Ring(6)
	var events int
	eng := mdegst.NewTracingEngine(func(mdegst.TraceEvent) { events++ })
	if _, err := mdegst.Run(g, mdegst.Options{Engine: eng}); err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Error("tracing engine reported no deliveries")
	}
}

func TestDOTThroughFacade(t *testing.T) {
	g := mdegst.Wheel(8)
	res, err := mdegst.Run(g, mdegst.Options{Initial: mdegst.InitialStar})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.Final.WriteDOT(&b, mdegst.Compile(g)); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "spanningtree") {
		t.Error("DOT output malformed")
	}
}

func TestRunExperimentsFacade(t *testing.T) {
	var events int
	opts := mdegst.ExperimentOptions{
		Seeds: 1, Scale: 0.1, Parallel: 4,
		Progress: func(mdegst.ExperimentProgress) { events++ },
	}
	tables, err := mdegst.RunExperiments([]string{"E5", "E6"}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "E5" || tables[1].ID != "E6" {
		t.Fatalf("unexpected tables %v", tables)
	}
	if events == 0 {
		t.Error("no progress callbacks")
	}
	var b strings.Builder
	if err := mdegst.WriteExperimentsJSON(&b, tables, opts); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"seeds": 1`, `"id": "E5"`, `"id": "E6"`, `"rows"`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("JSON output misses %q:\n%s", want, b.String())
		}
	}
	if _, err := mdegst.RunExperiments([]string{"nope"}, opts); err == nil {
		t.Error("unknown experiment id accepted")
	}
}
