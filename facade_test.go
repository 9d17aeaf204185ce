package mdegst_test

import (
	"bytes"
	"strings"
	"testing"

	"mdegst"
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
// not a spanning tree of the graph — wrong graph, non-edge parent link,
// Children disagreeing with Parent, detached or cyclic nodes — is an error,
// never a run.
func TestImproveRejectsBadTree(t *testing.T) {
	g := mdegst.Ring(6)
	c := mdegst.Compile(g)
	// path is the spanning path 0-1-2-3-4-5 of the ring, rooted at 0.
	path := func() *mdegst.Tree {
		return &mdegst.Tree{
			Root:     0,
			Parent:   map[mdegst.NodeID]mdegst.NodeID{1: 0, 2: 1, 3: 2, 4: 3, 5: 4},
			Children: map[mdegst.NodeID][]mdegst.NodeID{0: {1}, 1: {2}, 2: {3}, 3: {4}, 4: {5}, 5: nil},
		}
	}
	other, _, err := mdegst.BuildSpanningTree(mdegst.Ring(8), mdegst.InitialFlood, mdegst.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]*mdegst.Tree{
		"different graph": other,
		"non-edge parent": func() *mdegst.Tree {
			tr := path()
			tr.Parent[3] = 0
			tr.Children[2], tr.Children[0] = nil, []mdegst.NodeID{1, 3}
			return tr
		}(),
		"children disagree": func() *mdegst.Tree {
			tr := path()
			tr.Children[4] = nil
			tr.Children[0] = []mdegst.NodeID{1, 5}
			return tr
		}(),
		"detached node": func() *mdegst.Tree {
			tr := path()
			delete(tr.Parent, 5)
			tr.Children[4] = nil
			return tr
		}(),
		"cycle": func() *mdegst.Tree {
			tr := path()
			tr.Parent[1], tr.Parent[2] = 2, 1
			tr.Children[0], tr.Children[1], tr.Children[2] = nil, []mdegst.NodeID{2}, []mdegst.NodeID{1, 3}
			return tr
		}(),
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
		"ResumeImprove": func(tr *mdegst.Tree) error {
			_, err := mdegst.ResumeImprove(c, tr, mdegst.Options{}, bytes.NewReader(ck.Bytes()))
			return err
		},
	}
	for ename, run := range entries {
		if err := run(path()); err != nil {
			t.Errorf("%s: valid tree rejected: %v", ename, err)
		}
		for tname, tr := range bad {
			if err := run(tr); err == nil {
				t.Errorf("%s: %s accepted", ename, tname)
			}
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
	if err := res.Final.WriteDOT(&b, g); err != nil {
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
