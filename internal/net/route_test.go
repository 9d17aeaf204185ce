package net

import (
	"reflect"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// scripted sends a fixed list of messages per handler call: Init sends
// token 100·id+i to init[i], and a delivery of token w sends token 10·w+i
// to script[w][i].
type scripted struct {
	id     sim.NodeID
	init   []sim.NodeID
	script map[int64][]sim.NodeID
}

func (p *scripted) Init(ctx sim.Context) {
	for i, to := range p.init {
		sim.Send(ctx, to, allocTokenMsg(100*int64(p.id)+int64(i)))
	}
}

func (p *scripted) Recv(ctx sim.Context, _ sim.NodeID, m *sim.WireMsg) {
	for i, to := range p.script[m.W[0]] {
		sim.Send(ctx, to, allocTokenMsg(10*m.W[0]+int64(i)))
	}
}

// TestRoute pins barrier-side routing on a 3-process split of K6 (owner
// 0,1,0,2,1,0; process 0 owns nodes 0, 2 and 5). The send slabs are built
// by hand and checked against what a RoundRunner playing the script
// produces; the expected runs and counts were recorded from the per-send
// routing context the barrier-side route replaced, on the same script.
// The phases include zero-send deliveries, a delivery whose sends go to
// all three processes, and an Init phase whose ranks are dense indices.
func TestRoute(t *testing.T) {
	owner := []int32{0, 1, 0, 2, 1, 0}
	send := func(from, to int32, w int64) sim.PendingDelivery {
		return sim.PendingDelivery{From: from, To: to, Msg: allocTokenMsg(w)}
	}
	rec := func(parent int64, pos, from, to int32, w int64) sim.OutMsg {
		return sim.OutMsg{Parent: parent, Pos: pos, From: from, To: to, Msg: allocTokenMsg(w)}
	}
	initSent := []sim.PendingDelivery{send(0, 4, 0), send(0, 2, 1), send(5, 1, 500), send(5, 3, 501), send(5, 0, 502)}
	initEnds := []int{2, 2, 5}
	inbox := []sim.PendingDelivery{send(1, 0, 7), send(3, 2, 8), send(4, 5, 9), send(1, 0, 11)}
	playSent := []sim.PendingDelivery{send(0, 1, 70), send(0, 3, 71), send(0, 2, 72), send(5, 0, 90), send(5, 4, 91)}
	playEnds := []int{3, 3, 5, 5}

	c := graph.Complete(6).Compile()
	inits := map[sim.NodeID][]sim.NodeID{0: {4, 2}, 5: {1, 3, 0}}
	script := map[int64][]sim.NodeID{7: {1, 3, 2}, 9: {0, 4}}
	var r sim.RoundRunner
	r.Reset(c, func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		return &scripted{id: id, init: inits[id], script: script}
	})
	r.Init([]int32{0, 2, 5})
	if sent, ends := r.Sent(); !reflect.DeepEqual(sent, initSent) || !reflect.DeepEqual(ends, initEnds) {
		t.Fatalf("Init slab %v ends %v, want %v %v", sent, ends, initSent, initEnds)
	}
	r.Play(1, inbox)
	if sent, ends := r.Sent(); !reflect.DeepEqual(sent, playSent) || !reflect.DeepEqual(ends, playEnds) {
		t.Fatalf("Play slab %v ends %v, want %v %v", sent, ends, playSent, playEnds)
	}

	// Stale records and counts must not survive into a phase.
	out := [][]sim.OutMsg{{rec(9, 9, 9, 9, 9)}, nil, nil}
	stale := []sim.RankCount{{Rank: 99, Count: 1}}
	check := func(phase string, counts []sim.RankCount, wantOut [][]sim.OutMsg, wantCounts []sim.RankCount, played int) {
		t.Helper()
		for d, run := range out {
			for i := 1; i < len(run); i++ {
				if a, b := run[i-1], run[i]; a.Parent > b.Parent || a.Parent == b.Parent && a.Pos >= b.Pos {
					t.Errorf("%s: run to process %d not sorted by (Parent, Pos) at %d", phase, d, i)
				}
			}
		}
		if len(counts) != played {
			t.Errorf("%s: %d counts for %d played deliveries", phase, len(counts), played)
		}
		if !reflect.DeepEqual(out, wantOut) || !reflect.DeepEqual(counts, wantCounts) {
			t.Errorf("%s: routed\n%v\n%v\nwant\n%v\n%v", phase, out, counts, wantOut, wantCounts)
		}
	}

	counts := route(out, stale[:0], owner, initSent, initEnds, []int32{0, 2, 5})
	check("init", counts, [][]sim.OutMsg{
		{rec(0, 1, 0, 2, 1), rec(5, 2, 5, 0, 502)},
		{rec(0, 0, 0, 4, 0), rec(5, 0, 5, 1, 500)},
		{rec(5, 1, 5, 3, 501)},
	}, []sim.RankCount{{Rank: 0, Count: 2}, {Rank: 2}, {Rank: 5, Count: 3}}, 3)

	counts = route(out, counts[:0], owner, playSent, playEnds, []int64{3, 4, 9, 10})
	check("play", counts, [][]sim.OutMsg{
		{rec(3, 2, 0, 2, 72), rec(9, 0, 5, 0, 90)},
		{rec(3, 0, 0, 1, 70), rec(9, 1, 5, 4, 91)},
		{rec(3, 1, 0, 3, 71)},
	}, []sim.RankCount{{Rank: 3, Count: 3}, {Rank: 4}, {Rank: 9, Count: 2}, {Rank: 10}}, 4)

	counts = route(out, counts[:0], owner, nil, nil, []int64(nil))
	check("idle", counts, [][]sim.OutMsg{{}, {}, {}}, []sim.RankCount{}, 0)
}
