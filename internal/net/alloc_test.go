package net

import (
	"bytes"
	"fmt"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// TestDistSteadyStateAllocBudget pins the networked plane's zero-alloc
// contract (DESIGN.md §13): once an engine's round
// arena and the transport's payload rings are warm, the networked round
// loop — encode, flush, decode, splice, play — allocates nothing per
// unperturbed round, so whole-process allocations per run must not grow
// with the round count. The token walk delivers one message per round,
// making "20x the rounds" a pure steady-state magnifier across every
// goroutine of the cluster (K engines plus their transport readers).

// The net-test token protocol: the sim-package walker plus StateCodec,
// which the distributed plane requires for its final-state all-gather and
// checkpoint assembly.
var allocWire = sim.Register("netalloc",
	sim.OpSpec{Kind: "netalloc.token", MinPayload: 1, MaxPayload: 1},
)

var opAllocToken = allocWire.Op(0)

func allocTokenMsg(hops int64) sim.WireMsg {
	m := sim.WireMsg{Op: opAllocToken, Nw: 1}
	m.W[0] = hops
	return m
}

type allocToken struct {
	start bool
	limit int64
	seen  int64
}

func (n *allocToken) Init(ctx sim.Context) {
	if n.start {
		ctx.Send(ctx.Neighbors()[len(ctx.Neighbors())-1], allocTokenMsg(1))
	}
}

func (n *allocToken) Recv(ctx sim.Context, from sim.NodeID, m sim.WireMsg) {
	hops := m.W[0]
	n.seen++
	if hops >= n.limit {
		return
	}
	ns := ctx.Neighbors()
	next := ns[0]
	if next == from && len(ns) > 1 {
		next = ns[1]
	}
	ctx.Send(next, allocTokenMsg(hops+1))
}

func (n *allocToken) EncodeState(e *sim.StateEncoder) {
	e.Bool(n.start)
	e.Int(n.limit)
	e.Int(n.seen)
}

func (n *allocToken) DecodeState(d *sim.StateDecoder) error {
	n.start = d.Bool()
	n.limit = d.Int()
	n.seen = d.Int()
	return d.Err()
}

func allocTokenFactory(limit int64) sim.Factory {
	return func(id sim.NodeID, _ []sim.NodeID) sim.Protocol {
		return &allocToken{start: id == 0, limit: limit}
	}
}

// allocSlack absorbs what legitimately still allocates across a run pair:
// the report's per-(kind, round) breakdown maps grow amortised with the
// round count on every process, plus runtime noise from K goroutines of
// real TCP. The steady-state round loop itself is exactly zero
// allocations, which the 760-round magnifier would otherwise multiply.
const allocSlack = 96

func TestDistSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster alloc measurement")
	}
	c := graph.Ring(64).Compile()
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("procs=%d", k), func(t *testing.T) {
			measure := func(hops int64) float64 {
				m := newEngineMesh(t, c, k)
				run := func() {
					m.each(t, nil, func(eng *DistEngine) error {
						_, _, err := eng.Run(c, allocTokenFactory(hops))
						return err
					})
				}
				run() // warm the arenas and payload rings for this volume
				return testing.AllocsPerRun(5, run)
			}
			short, long := measure(40), measure(800)
			if long > short+allocSlack {
				t.Errorf("allocs grew with round count: 40 hops -> %.0f, 800 hops -> %.0f", short, long)
			}
		})
	}
}

// TestDistResumeSteadyStateAllocBudget is the resume-path variant: a run
// frozen at a round barrier and resumed through Resume must also
// hold per-round allocations flat — the checkpoint reseeding is a one-off
// cost per run, and the rounds replayed after it ride the same arenas.
func TestDistResumeSteadyStateAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback cluster alloc measurement")
	}
	c := graph.Ring(64).Compile()
	const k = 2
	measure := func(hops int64) float64 {
		m := newEngineMesh(t, c, k)
		// Freeze a run at round 3, then resume it repeatedly.
		var buf bytes.Buffer
		for i, eng := range m.engs {
			eng.Checkpoint = &sim.CheckpointSpec{Round: 3}
			if i == 0 {
				eng.Checkpoint.W = &buf
			}
		}
		m.each(t, []error{sim.ErrCheckpointed}, func(eng *DistEngine) error {
			_, _, err := eng.Run(c, allocTokenFactory(hops))
			return err
		})
		ck, err := sim.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, eng := range m.engs {
			eng.Checkpoint = nil
		}
		run := func() {
			m.each(t, nil, func(eng *DistEngine) error {
				_, _, err := eng.Resume(c, allocTokenFactory(hops), ck)
				return err
			})
		}
		run()
		return testing.AllocsPerRun(5, run)
	}
	short, long := measure(40), measure(800)
	if long > short+allocSlack {
		t.Errorf("resumed allocs grew with round count: 40 hops -> %.0f, 800 hops -> %.0f", short, long)
	}
}
