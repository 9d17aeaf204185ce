package net

import (
	"bytes"
	"fmt"
	"testing"

	"mdegst/internal/alloctest"
	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
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

// TestDistFloodAllocBudget holds a loopback cluster's flood build to a
// recorded whole-process allocation budget per run: every engine
// goroutine plus the transports' readers, on gnm-4096 (few rounds, large
// frames) and grid-100k (hundreds of barriers of small frames) at 2 and 4
// processes. The mesh and each process's slab flood factory are reused
// across runs, the daemon's steady state; the budgets follow alloctest's
// rule.
func TestDistFloodAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		gen    func() *graph.Graph
		k      int
		large  bool // ≥100k nodes: skipped under -short
		budget float64
	}{
		{"gnm-4096/procs=2", func() *graph.Graph { return graph.Gnm(4096, 16384, 1) }, 2, false, 18187},
		{"gnm-4096/procs=4", func() *graph.Graph { return graph.Gnm(4096, 16384, 1) }, 4, false, 38123},
		{"grid-100k/procs=2", func() *graph.Graph { return graph.Grid(316, 316) }, 2, true, 501343},
		{"grid-100k/procs=4", func() *graph.Graph { return graph.Grid(316, 316) }, 4, true, 1102593},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.large && testing.Short() {
				t.Skip("loopback flood of ≥100k nodes")
			}
			c := tc.gen().Compile()
			root := c.Source().Nodes()[0]
			fs := make([]sim.Factory, tc.k)
			for i := range fs {
				// The processes run concurrently, so each needs its own arena.
				fs[i] = spanning.NewFloodFactory(c, root)
			}
			m := newEngineMesh(t, c, tc.k)
			alloctest.Check(t, 3, tc.budget, func() {
				errs := m.run(t, func(i int, eng *DistEngine) error {
					_, _, err := spanning.Build(eng, c, fs[i])
					return err
				})
				for i, err := range errs {
					if err != nil {
						t.Fatalf("process %d: %v", i, err)
					}
				}
			})
		})
	}
}
