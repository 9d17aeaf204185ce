package sim

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"mdegst/internal/graph"
)

// The test schema: token carries a hop count, seq a per-link sequence
// number, flood nothing. Registered once per test binary.
var testWire = Register("simtest",
	OpSpec{Kind: "token", MinPayload: 1, MaxPayload: 1},
	OpSpec{Kind: "seq", MinPayload: 1, MaxPayload: 1},
	OpSpec{Kind: "flood"},
)

var (
	opToken = testWire.Op(0)
	opSeq   = testWire.Op(1)
	opFlood = testWire.Op(2)
)

// tokenMsg circulates around a ring a fixed number of hops.
func tokenMsg(hops int) WireMsg {
	m := WireMsg{Op: opToken, Nw: 1}
	m.W[0] = int64(hops)
	return m
}

type tokenNode struct {
	id    NodeID
	start bool
	limit int
	seen  int
}

func (n *tokenNode) Init(ctx Context) {
	if !n.start {
		return
	}
	ctx.Send(ctx.Neighbors()[len(ctx.Neighbors())-1], tokenMsg(1))
}

func (n *tokenNode) Recv(ctx Context, from NodeID, m WireMsg) {
	hops := int(m.W[0])
	n.seen++
	if hops >= n.limit {
		return
	}
	// Forward away from the sender (bounce back on a dead end).
	ns := ctx.Neighbors()
	next := ns[0]
	if next == from && len(ns) > 1 {
		next = ns[1]
	}
	ctx.Send(next, tokenMsg(hops+1))
}

func tokenFactory(limit int) Factory {
	return func(id NodeID, _ []NodeID) Protocol {
		return &tokenNode{id: id, start: id == 0, limit: limit}
	}
}

func engines() map[string]Engine {
	return map[string]Engine{
		"event-unit":   &EventEngine{Delay: UnitDelay},
		"event-random": &EventEngine{Delay: UniformDelay(0.1), Seed: 7, FIFO: true},
		"async":        &AsyncEngine{},
	}
}

func TestTokenRing(t *testing.T) {
	const n, hops = 10, 25
	g := graph.Ring(n)
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			protos, rep, err := eng.Run(g.Compile(), tokenFactory(hops))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Messages != hops {
				t.Errorf("messages = %d, want %d", rep.Messages, hops)
			}
			if rep.CausalDepth != hops {
				t.Errorf("causal depth = %d, want %d", rep.CausalDepth, hops)
			}
			if rep.ByKind["token"] != hops {
				t.Errorf("ByKind[token] = %d, want %d", rep.ByKind["token"], hops)
			}
			if rep.Words != 2*hops {
				t.Errorf("words = %d, want %d", rep.Words, 2*hops)
			}
			if rep.MaxWords != 2 {
				t.Errorf("max words = %d, want 2", rep.MaxWords)
			}
			total := 0
			for _, p := range protos {
				total += p.(*tokenNode).seen
			}
			if total != hops {
				t.Errorf("sum of received tokens = %d, want %d", total, hops)
			}
		})
	}
}

func TestUnitDelayVirtualTime(t *testing.T) {
	g := graph.Ring(8)
	eng := &EventEngine{Delay: UnitDelay}
	_, rep, err := eng.Run(g.Compile(), tokenFactory(20))
	if err != nil {
		t.Fatal(err)
	}
	if rep.VirtualTime != 20 {
		t.Errorf("virtual time = %v, want 20", rep.VirtualTime)
	}
}

func TestEventEngineDeterminism(t *testing.T) {
	g := graph.Gnp(24, 0.3, 42)
	run := func() *Report {
		eng := &EventEngine{Delay: UniformDelay(0.05), Seed: 99, FIFO: true}
		_, rep, err := eng.Run(g.Compile(), tokenFactory(40))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.Messages != b.Messages || a.VirtualTime != b.VirtualTime || a.CausalDepth != b.CausalDepth {
		t.Errorf("non-deterministic reports: %+v vs %+v", a, b)
	}
}

// seqMsg carries a per-link sequence number for FIFO tests.
func seqMsg(seq int) WireMsg {
	m := WireMsg{Op: opSeq, Nw: 1}
	m.W[0] = int64(seq)
	return m
}

type seqSender struct {
	id    NodeID
	count int
	got   []int
}

func (s *seqSender) Init(ctx Context) {
	if s.id != 0 {
		return
	}
	for i := 0; i < s.count; i++ {
		ctx.Send(1, seqMsg(i))
	}
}

func (s *seqSender) Recv(_ Context, _ NodeID, m WireMsg) {
	s.got = append(s.got, int(m.W[0]))
}

func TestFIFOOrdering(t *testing.T) {
	g := graph.Path(2)
	const count = 64
	factory := func(id NodeID, _ []NodeID) Protocol { return &seqSender{id: id, count: count} }

	eng := &EventEngine{Delay: UniformDelay(0.01), Seed: 5, FIFO: true}
	protos, _, err := eng.Run(g.Compile(), factory)
	if err != nil {
		t.Fatal(err)
	}
	got := protos[1].(*seqSender).got
	for i, v := range got {
		if v != i {
			t.Fatalf("FIFO violated at position %d: got %d", i, v)
		}
	}

	// Without FIFO the same seed must reorder at least one pair (delays are
	// i.i.d. over 64 messages, so a monotone outcome would be astonishing).
	eng = &EventEngine{Delay: UniformDelay(0.01), Seed: 5, FIFO: false}
	protos, _, err = eng.Run(g.Compile(), factory)
	if err != nil {
		t.Fatal(err)
	}
	got = protos[1].(*seqSender).got
	sorted := true
	for i, v := range got {
		if v != i {
			sorted = false
			break
		}
	}
	if sorted {
		t.Error("expected reordering without FIFO enforcement")
	}
}

// badSender sends to a non-neighbour; both engines must surface the bug as
// an error rather than hanging or crashing the process.
type badSender struct{ id NodeID }

func (b *badSender) Init(ctx Context) {
	if b.id == 0 {
		ctx.Send(99, tokenMsg(0))
	}
}
func (b *badSender) Recv(Context, NodeID, WireMsg) {}

func TestNonNeighborSendFails(t *testing.T) {
	g := graph.Path(3)
	factory := func(id NodeID, _ []NodeID) Protocol { return &badSender{id: id} }
	for name, eng := range engines() {
		t.Run(name, func(t *testing.T) {
			_, _, err := eng.Run(g.Compile(), factory)
			if err == nil || !strings.Contains(err.Error(), "non-neighbour") {
				t.Errorf("want non-neighbour error, got %v", err)
			}
		})
	}
}

// chainReaction floods to test the livelock guard.
type chainReaction struct{}

func (chainReaction) Init(ctx Context) {
	for _, w := range ctx.Neighbors() {
		ctx.Send(w, tokenMsg(0))
	}
}
func (chainReaction) Recv(ctx Context, from NodeID, _ WireMsg) {
	ctx.Send(from, tokenMsg(0))
}

// TestLivelockGuard pins the typed budget abort on every single-process
// tier: each stops exactly before the delivery that would exceed the cap.
func TestLivelockGuard(t *testing.T) {
	g := graph.Ring(4)
	engines := map[string]Engine{
		"rounds":    &EventEngine{Delay: UnitDelay, MaxMessages: 1000},
		"wheel":     &EventEngine{Delay: UniformDelay(0.5), Seed: 1, MaxMessages: 1000},
		"reference": &ReferenceEngine{Delay: UnitDelay, MaxMessages: 1000},
	}
	for name, eng := range engines {
		_, _, err := eng.Run(g.Compile(), func(NodeID, []NodeID) Protocol { return chainReaction{} })
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Errorf("%s: want *BudgetError, got %v", name, err)
			continue
		}
		if be.Messages != 1000 || be.Limit != 1000 {
			t.Errorf("%s: aborted at %d of %d messages, want 1000 of 1000", name, be.Messages, be.Limit)
		}
	}
}

func TestReportMerge(t *testing.T) {
	a, b := newReport(), newReport()
	a.record(1, tokenMsg(0), 3)
	b.record(2, tokenMsg(0), 5)
	b.record(2, seqMsg(0), 1)
	a.Add(b)
	if a.Messages != 3 {
		t.Errorf("messages = %d, want 3", a.Messages)
	}
	if a.ByKind["token"] != 2 || a.ByKind["seq"] != 1 {
		t.Errorf("by kind = %v", a.ByKind)
	}
	if a.CausalDepth != 8 {
		t.Errorf("causal depth = %d, want 8 (phases compose)", a.CausalDepth)
	}
	if a.SentBy[2] != 2 {
		t.Errorf("sentBy[2] = %d, want 2", a.SentBy[2])
	}
}

// TestMergeParallel pins the exported merge semantics on both finalization
// states: counters sum, time-like measures take the maximum.
func TestMergeParallel(t *testing.T) {
	mk := func(n int64, depth int64, vt float64) *Report {
		r := NewReport()
		for i := int64(0); i < n; i++ {
			r.record(1, tokenMsg(1), depth)
		}
		r.VirtualTime = vt
		return r
	}
	for _, preFinalize := range []bool{false, true} {
		a := mk(3, 4, 2.5)
		b := mk(2, 9, 1.5)
		if preFinalize {
			a.finalize()
			b.finalize()
		}
		a.MergeParallel(b)
		a.finalize()
		if a.Messages != 5 || a.CausalDepth != 9 || a.VirtualTime != 2.5 {
			t.Fatalf("preFinalize=%v: merged %+v", preFinalize, a)
		}
		if a.ByKind["token"] != 5 || a.SentBy[1] != 5 {
			t.Fatalf("preFinalize=%v: breakdowns %v %v", preFinalize, a.ByKind, a.SentBy)
		}
	}
}

// TestProtocolPanic pins panic conversion: a handler panic surfaces as the
// engine's error on the round tier, the wheel tier and the reference
// engine, instead of crashing the caller.
func TestProtocolPanic(t *testing.T) {
	g := graph.Ring(12)
	boom := func(id NodeID, _ []NodeID) Protocol { return &panicNode{at: 5} }
	engines := map[string]Engine{
		"rounds":    &EventEngine{Delay: UnitDelay},
		"wheel":     &EventEngine{Delay: UniformDelay(0.5), Seed: 1},
		"reference": &ReferenceEngine{Delay: UnitDelay},
	}
	for name, eng := range engines {
		_, _, err := eng.Run(g.Compile(), boom)
		if err == nil || !strings.Contains(err.Error(), "protocol panic") {
			t.Fatalf("%s: want protocol panic error, got %v", name, err)
		}
	}
}

// panicNode forwards a token and panics on the at-th delivery it sees.
type panicNode struct{ at, seen int }

func (p *panicNode) Init(ctx Context) {
	if ctx.ID() == 0 {
		ctx.Send(ctx.Neighbors()[0], tokenMsg(1))
	}
}

func (p *panicNode) Recv(ctx Context, from NodeID, m WireMsg) {
	p.seen++
	if p.seen >= p.at {
		panic("boom")
	}
	ctx.Send(ctx.Neighbors()[0], tokenMsg(int(m.W[0])+1))
}

func TestTraceEvents(t *testing.T) {
	g := graph.Path(2)
	var events []TraceEvent
	eng := &EventEngine{Delay: UnitDelay, Trace: func(e TraceEvent) { events = append(events, e) }}
	_, _, err := eng.Run(g.Compile(), tokenFactory(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("trace events = %d, want 3", len(events))
	}
	if events[0].From != 0 || events[0].To != 1 {
		t.Errorf("first event = %+v", events[0])
	}
}

// krWire registers one rounded opcode for the dense counter tests.
var krWire = Register("simkr", OpSpec{Kind: "kr.round", MinPayload: 1, MaxPayload: 1, Rounded: true})

// TestDenseCounterMatchesMap feeds the same deliveries to the map-backed
// record path and to the dense (round, opcode) slab, across slab growth,
// a mid-run fold, another schema's opcode, rounds outside the slab's range
// and a 32-bit counter wrap, and requires identical public breakdowns.
func TestDenseCounterMatchesMap(t *testing.T) {
	a, b := newReport(), newReport()
	var slab krSlab
	b.adoptKR(&slab)
	deliver := func(round int) {
		m := WireMsg{Op: krWire.Op(0), Nw: 1}
		m.W[0] = int64(round)
		a.record(1, m, 1)
		b.recordKR(&m, 1)
	}
	for round := 0; round < 300; round++ {
		for k := 0; k <= round%3; k++ {
			deliver(round)
		}
		if round == 150 {
			b.syncHot() // a checkpoint capture mid-run
		}
	}
	tok := tokenMsg(7)
	a.record(1, tok, 1)
	b.recordKR(&tok, 1)
	deliver(-1)
	deliver(krMaxRounds)
	// Wrap one 32-bit counter: both sides hold 2^32-1 deliveries of round 5
	// before one more arrives.
	a.kindRound[kindRoundKey{krWire.Op(0), 5}] += 1<<32 - 1
	slab.c[5*slab.w+int(krWire.Op(0)-slab.base)] = 1<<32 - 1
	deliver(5)
	a.finalize()
	b.finalize()
	if b.kr != nil {
		t.Error("finalize kept the lent slab")
	}
	if !reflect.DeepEqual(a.ByKind, b.ByKind) || !reflect.DeepEqual(a.ByRound, b.ByRound) ||
		!reflect.DeepEqual(a.ByKindRound, b.ByKindRound) || a.Messages != b.Messages {
		t.Errorf("dense counter diverged from the map path:\nmap:   %v\ndense: %v", a.ByRound, b.ByRound)
	}
	if got := b.ByKindRound["kr.round/5"]; got != 1<<32+3 {
		t.Errorf("wrapped counter = %d, want %d", got, int64(1<<32+3))
	}
}
