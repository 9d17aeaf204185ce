package mdst

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// Deferral replay pinning. Under non-FIFO delivery a node defers BFS probes
// that arrive before it knows its fragment (fragment-unknown) and messages
// of a round it has not entered yet (round-ahead), and replays them once
// its state moves on. The replay order decides the order of the sends the
// replayed handlers make, which under randomised delays decides every later
// delay draw, so a run's Report and final tree pin it exactly.

// deferralCounts classifies deliveries that a node defers on arrival.
type deferralCounts struct {
	roundAhead, fragUnknown int
}

// countingNode wraps a Node and counts the deliveries the deferral test
// will reject, read off the node's state before the delivery runs.
type countingNode struct {
	*Node
	c *deferralCounts
}

func (w countingNode) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	n := w.Node
	switch round := int(m.W[0]); {
	case round > n.round && m.Op != opStart:
		w.c.roundAhead++
	case round == n.round && m.Op == opBFS && !(n.hasParent && from == n.parent) && !n.isOwner && !n.fragKnown:
		w.c.fragUnknown++
	}
	n.Recv(ctx, from, m)
}

// runCounted runs the improvement from a star tree of g on eng with every
// node wrapped in a counter, returning the rendered Report, a digest of
// the final tree and the deferral counts.
func runCounted(t *testing.T, eng sim.Engine, g *graph.Graph, mode Mode) (string, string, deferralCounts) {
	t.Helper()
	c := g.Compile()
	d, err := spanning.StarTree(c)
	if err != nil {
		t.Fatal(err)
	}
	var counts deferralCounts
	inner := NewFactory(c, mode, 0, d)
	f := func(id sim.NodeID, nbrs []sim.NodeID) sim.Protocol {
		return countingNode{Node: inner(id, nbrs).(*Node), c: &counts}
	}
	protos, rep, err := eng.Run(c, f)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range protos {
		protos[i] = p.(countingNode).Node
	}
	res, err := extract(c, d, protos, rep)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256([]byte(res.Tree.String()))
	return rep.String(), fmt.Sprintf("%x", sum[:8]), counts
}

// TestDeferralReplayOrderPinned runs the non-FIFO engines of
// TestDeliveryOrderIndependence on a gnm instance where hundreds of BFS
// probes are deferred, and requires each run's Report, final tree and
// deferral counts to equal the recorded values. The causal depth and
// virtual time move with any change of replay order. (The Multi rows were
// recorded before the deferred list learned to skip retries and compact
// in place; only their word counts moved since, when start, move, cut and
// bfsback widened and when bfsback's long form packed its words. The
// Single and Hybrid rows were recorded again when Single rounds stopped
// probing edges that cannot qualify, DESIGN.md deviation 8, and when most
// Single rounds stopped running the deg convergecast, deviation 9.)
// Round-ahead deferrals occur only in those fused rounds: there the owner
// acts before the round's start has reached every node, so its wave's
// probes can overtake the start. A round that runs deg cannot, because the
// root's decision waits for every node's degree report, which each sends
// only after its start; the Multi rows therefore have none.
func TestDeferralReplayOrderPinned(t *testing.T) {
	g := graph.Gnm(40, 120, 3)
	golden := []struct {
		mode        Mode
		seed        int64
		roundAhead  int
		fragUnknown int
		tree        string
		report      string
	}{
		{Single, 3, 347, 476, "b9580babdde49d48", "messages=5427 words=29335 maxWords=9 causalDepth=978 virtualTime=510.1 rounds=20\n  mdst.bfs     2627\n  mdst.bfsback 741\n  mdst.child   17\n  mdst.cousin  648\n  mdst.cut     98\n  mdst.deg     273\n  mdst.move    60\n  mdst.rounddone 62\n  mdst.start   780\n  mdst.term    39\n  mdst.update  82\n"},
		{Single, 4, 357, 484, "b9580babdde49d48", "messages=5427 words=29335 maxWords=9 causalDepth=969 virtualTime=524.6 rounds=20\n  mdst.bfs     2627\n  mdst.bfsback 741\n  mdst.child   17\n  mdst.cousin  648\n  mdst.cut     98\n  mdst.deg     273\n  mdst.move    60\n  mdst.rounddone 62\n  mdst.start   780\n  mdst.term    39\n  mdst.update  82\n"},
		{Multi, 3, 0, 473, "ffedfbb462836187", "messages=3506 words=17696 maxWords=7 causalDepth=419 virtualTime=227.2 rounds=9\n  mdst.bfs     1599\n  mdst.bfsback 351\n  mdst.child   13\n  mdst.cousin  589\n  mdst.cut     128\n  mdst.deg     351\n  mdst.move    11\n  mdst.rounddone 37\n  mdst.start   351\n  mdst.term    39\n  mdst.update  37\n"},
		{Multi, 4, 0, 459, "ffedfbb462836187", "messages=3506 words=17696 maxWords=7 causalDepth=416 virtualTime=225.2 rounds=9\n  mdst.bfs     1599\n  mdst.bfsback 351\n  mdst.child   13\n  mdst.cousin  589\n  mdst.cut     128\n  mdst.deg     351\n  mdst.move    11\n  mdst.rounddone 37\n  mdst.start   351\n  mdst.term    39\n  mdst.update  37\n"},
		{Hybrid, 3, 16, 565, "53609c4467b2f192", "messages=5010 words=25957 maxWords=9 causalDepth=1118 virtualTime=592.6 rounds=17\n  mdst.bfs     2055\n  mdst.bfsback 624\n  mdst.child   19\n  mdst.cousin  638\n  mdst.cut     149\n  mdst.deg     585\n  mdst.move    56\n  mdst.rounddone 71\n  mdst.start   663\n  mdst.term    39\n  mdst.update  111\n"},
		{Hybrid, 4, 17, 554, "53609c4467b2f192", "messages=5010 words=25957 maxWords=9 causalDepth=1117 virtualTime=602.9 rounds=17\n  mdst.bfs     2055\n  mdst.bfsback 624\n  mdst.child   19\n  mdst.cousin  638\n  mdst.cut     149\n  mdst.deg     585\n  mdst.move    56\n  mdst.rounddone 71\n  mdst.start   663\n  mdst.term    39\n  mdst.update  111\n"},
	}
	for _, want := range golden {
		t.Run(fmt.Sprintf("%s/seed%d", want.mode, want.seed), func(t *testing.T) {
			eng := &sim.EventEngine{Delay: sim.UniformDelay(0.02), Seed: want.seed, FIFO: false}
			report, tree, counts := runCounted(t, eng, g, want.mode)
			if counts != (deferralCounts{roundAhead: want.roundAhead, fragUnknown: want.fragUnknown}) {
				t.Errorf("deferrals %+v, want %d round-ahead and %d fragment-unknown", counts, want.roundAhead, want.fragUnknown)
			}
			if tree != want.tree {
				t.Errorf("final tree digest %s, want %s", tree, want.tree)
			}
			if report != want.report {
				t.Errorf("report:\n%s\nwant:\n%s", report, want.report)
			}
		})
	}
}

// scriptCtx is a Context that records sends, for driving one node by hand.
type scriptCtx struct {
	id   sim.NodeID
	nbrs []sim.NodeID
	out  []scriptSend
}

type scriptSend struct {
	to sim.NodeID
	m  sim.WireMsg
}

func (c *scriptCtx) ID() sim.NodeID          { return c.id }
func (c *scriptCtx) Neighbors() []sim.NodeID { return c.nbrs }
func (c *scriptCtx) Out(to sim.NodeID) *sim.WireMsg {
	c.out = append(c.out, scriptSend{to: to})
	return &c.out[len(c.out)-1].m
}

// sends renders the sends so far as "kind->receiver".
func (c *scriptCtx) sends() []string {
	s := make([]string, len(c.out))
	for i, o := range c.out {
		s[i] = fmt.Sprintf("%s->%d", o.m.Kind(), o.to)
	}
	return s
}

// TestDeferralReplayScripted drives one leaf through both deferral kinds:
// two round-2 probes arrive before its round-2 start (round-ahead), stay
// deferred after the start because the leaf has no fragment yet
// (fragment-unknown), and are answered when the cut gives it one. The
// answers must follow the order the probes arrived in, not neighbour order.
func TestDeferralReplayScripted(t *testing.T) {
	n := &Node{id: 5, mode: Single, phase: Single, parent: 1, hasParent: true, round: 1, belief: make([]int, 3)}
	ctx := &scriptCtx{id: 5, nbrs: []sim.NodeID{1, 7, 8}}
	// Probes from fragments (1,2) and (1,3), both below the leaf's future
	// fragment (1,5), so each is answered with a cousin record.
	n.Recv(ctx, 8, ptr(newBFS(2, 4, 1, 3)))
	n.Recv(ctx, 7, ptr(newBFS(2, 4, 1, 2)))
	if len(n.deferred) != 2 || len(ctx.sends()) != 0 {
		t.Fatalf("round-ahead probes: %d deferred, sends %v", len(n.deferred), ctx.sends())
	}
	n.Recv(ctx, 1, ptr(newStart(mStart{round: 2, cut: noCand, owner: noCand, phase: Single})))
	if len(n.deferred) != 2 {
		t.Fatalf("after start: %d deferred, want both probes waiting for a fragment", len(n.deferred))
	}
	n.Recv(ctx, 1, ptr(newCut(2, 4, 1, noLabel)))
	if len(n.deferred) != 0 {
		t.Fatalf("after cut: %d still deferred", len(n.deferred))
	}
	want := []string{
		"mdst.deg->1",
		"mdst.bfs->7", "mdst.bfs->8",
		"mdst.cousin->8", "mdst.cousin->7",
		"mdst.bfsback->1",
	}
	if fmt.Sprint(ctx.sends()) != fmt.Sprint(want) {
		t.Errorf("sends %v, want %v", ctx.sends(), want)
	}
}
