package net

import (
	"fmt"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// The engine contract for Recv's record (sim.Protocol): it points into the
// engine's delivery memory and must stay intact for the whole call, however
// many records the handler sends. A probe's handler sends a burst of
// records big enough to make any send slab grow, each filled with the
// probe's words inverted, then forwards the probe and re-reads its record.
// An engine whose inbox aliased its send slab, or that handed out a slot
// the sends reuse, would show the burst's words there. Every eighth node of
// a 64-node ring starts a probe, so the run guard's round-0 window
// (16·n·(n+m) deliveries, sim.Window) admits the bursts, and on two
// processes the probe from node 32 crosses between them.

var lifeWire = sim.Register("netlife",
	sim.OpSpec{Kind: "netlife.probe", MinPayload: sim.MaxPayloadWords, MaxPayload: sim.MaxPayloadWords},
	sim.OpSpec{Kind: "netlife.burst", MinPayload: sim.MaxPayloadWords, MaxPayload: sim.MaxPayloadWords},
)

var (
	opLifeProbe = lifeWire.Op(0)
	opLifeBurst = lifeWire.Op(1)
)

const (
	lifeHops  = 3
	lifeBurst = 3000
)

// putProbe writes the probe of the given hop, whose words all derive from
// the hop.
func putProbe(m *sim.WireMsg, hops int64) {
	m.Op, m.Nw = opLifeProbe, sim.MaxPayloadWords
	for i := range m.W {
		m.W[i] = hops*1000 + int64(i)
	}
}

type lifeNode struct {
	start          bool
	probes, bursts int64
}

func (n *lifeNode) Init(ctx sim.Context) {
	if n.start {
		putProbe(ctx.Out(ctx.Neighbors()[0]), 1)
	}
}

func (n *lifeNode) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	if m.Op == opLifeBurst {
		n.bursts++
		return
	}
	n.probes++
	keep := *m
	hops := keep.W[0] / 1000
	var want sim.WireMsg
	putProbe(&want, hops)
	if keep != want {
		panic(fmt.Sprintf("node %d got probe %v, want %v", ctx.ID(), keep.W, want.W))
	}
	for range lifeBurst {
		out := ctx.Out(from)
		out.Op, out.Nw = opLifeBurst, sim.MaxPayloadWords
		for i := range out.W {
			out.W[i] = ^keep.W[i]
		}
	}
	if hops < lifeHops {
		ns := ctx.Neighbors()
		next := ns[0]
		if next == from {
			next = ns[len(ns)-1]
		}
		putProbe(ctx.Out(next), hops+1)
	}
	if *m != keep {
		panic(fmt.Sprintf("node %d: probe record changed under its sends: %v, was %v", ctx.ID(), m.W, keep.W))
	}
}

func (n *lifeNode) WalkState(s *sim.State) {
	s.Bool(&n.start)
	sim.Varint(s, &n.probes)
	sim.Varint(s, &n.bursts)
}

func TestRecvRecordOutlivesSends(t *testing.T) {
	c := graph.Ring(64).Compile()
	f := func(id sim.NodeID, _ []sim.NodeID) sim.Protocol { return &lifeNode{start: id%8 == 0} }
	const probers = 8
	want := int64(probers * lifeHops * (lifeBurst + 1))
	check := func(t *testing.T, protos []sim.Protocol, rep *sim.Report) {
		t.Helper()
		if rep.Messages != want {
			t.Errorf("delivered %d messages, want %d", rep.Messages, want)
		}
		var probes, bursts int64
		for _, p := range protos {
			probes += p.(*lifeNode).probes
			bursts += p.(*lifeNode).bursts
		}
		if probes != probers*lifeHops || bursts != probes*lifeBurst {
			t.Errorf("nodes saw %d probes and %d burst records", probes, bursts)
		}
	}
	for _, tc := range []struct {
		name string
		eng  sim.Engine
	}{
		{"event-unit", &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}},
		{"event-uniform", &sim.EventEngine{Delay: sim.UniformDelay(0.1), FIFO: true, Seed: 3}},
		{"reference", &sim.ReferenceEngine{Delay: sim.UnitDelay, FIFO: true}},
		{"async", &sim.AsyncEngine{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			protos, rep, err := tc.eng.Run(c, f)
			if err != nil {
				t.Fatal(err)
			}
			check(t, protos, rep)
		})
	}
	t.Run("dist-2", func(t *testing.T) {
		m := newEngineMesh(t, c, 2)
		m.each(t, nil, func(eng *DistEngine) error {
			protos, rep, err := eng.Run(c, f)
			if err == nil {
				check(t, protos, rep)
			}
			return err
		})
	})
}
