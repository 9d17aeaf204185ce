package sim_test

import (
	"bytes"
	"cmp"
	"errors"
	"maps"
	"slices"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// tally counts deliveries straight from the trace, independently of the
// engines' accumulator: per (opcode, round), the round being payload word
// 0 of the kinds the registry declares Rounded, and per sender.
type tally struct {
	n       int64
	rounded map[sim.Op]bool
	kr      map[sim.KindRoundCount]int64 // keyed with Count zero
	sentBy  map[sim.NodeID]int64
}

func newTally() *tally {
	t := &tally{rounded: map[sim.Op]bool{}, kr: map[sim.KindRoundCount]int64{}, sentBy: map[sim.NodeID]int64{}}
	for _, s := range sim.Schemas() {
		for i := range s.Len() {
			t.rounded[s.Op(i)] = s.Spec(i).Rounded
		}
	}
	return t
}

func (t *tally) add(e sim.TraceEvent) {
	k := sim.KindRoundCount{Op: e.Msg.Op}
	if t.rounded[k.Op] {
		k.Round = int(e.Msg.W[0])
	}
	t.n++
	t.kr[k]++
	t.sentBy[e.From]++
}

// check requires rep's lists to hold exactly the tallied counts, in the
// lists' (opcode, round) and node order, and ByKind their per-kind sums.
func (t *tally) check(tb testing.TB, what string, rep *sim.Report) {
	tb.Helper()
	kr := make([]sim.KindRoundCount, 0, len(t.kr))
	for k, v := range t.kr {
		k.Count = v
		kr = append(kr, k)
	}
	slices.SortFunc(kr, func(a, b sim.KindRoundCount) int {
		return cmp.Or(cmp.Compare(a.Op, b.Op), cmp.Compare(a.Round, b.Round))
	})
	sb := make([]sim.SentByCount, 0, len(t.sentBy))
	for id, v := range t.sentBy {
		sb = append(sb, sim.SentByCount{Node: id, Count: v})
	}
	slices.SortFunc(sb, func(a, b sim.SentByCount) int { return cmp.Compare(a.Node, b.Node) })
	if rep.Messages != t.n || !slices.Equal(rep.KindRounds(), kr) || !slices.Equal(rep.SentBy(), sb) {
		tb.Fatalf("%s: report diverges from its trace: %d messages, trace %d\nkind rounds %v\ntrace       %v\nsent by %v\ntrace   %v",
			what, rep.Messages, t.n, rep.KindRounds(), kr, rep.SentBy(), sb)
	}
	byKind := map[string]int64{}
	for _, k := range kr {
		byKind[k.Kind()] += k.Count
	}
	if !maps.Equal(rep.ByKind, byKind) {
		tb.Fatalf("%s: ByKind %v, trace %v", what, rep.ByKind, byKind)
	}
}

// countEngines are the engines whose reports the trace is held to: the
// event engine's round and wheel tiers and the reference engine.
func countEngines(trace func(sim.TraceEvent)) map[string]sim.Engine {
	return map[string]sim.Engine{
		"rounds":    &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Trace: trace},
		"wheel":     &sim.EventEngine{Delay: sim.UniformDelay(0.2), Seed: 7, FIFO: true, Trace: trace},
		"reference": &sim.ReferenceEngine{Delay: sim.UnitDelay, FIFO: true, Trace: trace},
	}
}

// TestDenseCountersMatchTrace holds every engine's report to counts
// tallied from its own delivery trace: the flood and the Hybrid
// improvement on gnm-96 and a 300-round relay, which grows the slab past
// its first rows, on each engine, and a Hybrid run frozen at a barrier
// and resumed, whose two traces together must tally to the resumed
// report.
func TestDenseCountersMatchTrace(t *testing.T) {
	g := graph.Gnm(96, 288, 1)
	c := g.Compile()
	for name := range countEngines(nil) {
		t.Run(name, func(t *testing.T) {
			tl := newTally()
			eng := countEngines(tl.add)[name]
			t0, rep, err := spanning.Build(eng, c, spanning.NewFloodFactory(c, g.Nodes()[0]))
			if err != nil {
				t.Fatal(err)
			}
			tl.check(t, "flood", rep)

			tl = newTally()
			eng = countEngines(tl.add)[name]
			res, err := mdst.Run(eng, c, t0, mdst.Hybrid, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Report.Rounds() < 10 {
				t.Fatalf("Hybrid ran %d rounds; the tally needs a longer run", res.Report.Rounds())
			}
			tl.check(t, "hybrid", res.Report)

			tl = newTally()
			_, rep, err = countEngines(tl.add)[name].Run(graph.Path(2).Compile(), func(sim.NodeID, []sim.NodeID) sim.Protocol { return relay{} })
			if err != nil {
				t.Fatal(err)
			}
			tl.check(t, "relay", rep)
		})
	}

	t.Run("resume", func(t *testing.T) {
		t0, err := spanning.StarTree(c)
		if err != nil {
			t.Fatal(err)
		}
		tl := newTally()
		var buf bytes.Buffer
		frozen := &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Trace: tl.add, Checkpoint: &sim.CheckpointSpec{Round: 40, W: &buf}}
		if _, err := mdst.Run(frozen, c, t0, mdst.Hybrid, 0); !errors.Is(err, sim.ErrCheckpointed) {
			t.Fatalf("freeze: %v", err)
		}
		ck, err := sim.ReadCheckpoint(&buf)
		if err != nil {
			t.Fatal(err)
		}
		res, err := mdst.Resume(&sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Trace: tl.add}, c, t0, mdst.Hybrid, 0, ck)
		if err != nil {
			t.Fatal(err)
		}
		tl.check(t, "resumed", res.Report)
	})
}

// countWire and otherWire are two one-opcode schemas for the records a
// report cannot count.
var (
	countWire = sim.Register("simcount", sim.OpSpec{Kind: "count.round", MinPayload: 1, MaxPayload: 1, Rounded: true})
	otherWire = sim.Register("simother", sim.OpSpec{Kind: "other.round", MinPayload: 1, MaxPayload: 1, Rounded: true})
)

// relay passes one count.round record back and forth, its round word
// counting the hops up to 300.
type relay struct{}

func (relay) Init(ctx sim.Context) {
	if ctx.ID() == 0 {
		sim.Send(ctx, ctx.Neighbors()[0], sim.Msg(countWire.Op(0), 0))
	}
}

func (relay) Recv(ctx sim.Context, from sim.NodeID, m *sim.WireMsg) {
	if m.W[0] < 300 {
		sim.Send(ctx, from, sim.Msg(countWire.Op(0), m.W[0]+1))
	}
}

// sender has node 0 send its records to its first neighbour at Init.
type sender struct{ msgs []sim.WireMsg }

func (s *sender) Init(ctx sim.Context) {
	if ctx.ID() == 0 {
		for _, m := range s.msgs {
			sim.Send(ctx, ctx.Neighbors()[0], m)
		}
	}
}

func (s *sender) Recv(sim.Context, sim.NodeID, *sim.WireMsg) {}

// TestDenseCountersRejectUncountable pins the records outside the
// accumulator's domain — a round of -1 or of 2^16, and an opcode of a
// second schema in one run — as a typed *WireError on every engine.
func TestDenseCountersRejectUncountable(t *testing.T) {
	c := graph.Path(3).Compile()
	cases := map[string][]sim.WireMsg{
		"round -1":      {sim.Msg(countWire.Op(0), -1)},
		"round 2^16":    {sim.Msg(countWire.Op(0), 1<<16)},
		"second schema": {sim.Msg(countWire.Op(0), 1), sim.Msg(otherWire.Op(0), 1)},
	}
	for cname, msgs := range cases {
		engines := countEngines(nil)
		engines["async"] = &sim.AsyncEngine{}
		for ename, eng := range engines {
			_, _, err := eng.Run(c, func(sim.NodeID, []sim.NodeID) sim.Protocol { return &sender{msgs: msgs} })
			var we *sim.WireError
			if !errors.As(err, &we) {
				t.Errorf("%s on %s: want a *WireError, got %v", cname, ename, err)
			}
		}
	}
}
