package sim

import (
	"errors"
	"fmt"
	"slices"
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
	Send(ctx, ctx.Neighbors()[len(ctx.Neighbors())-1], tokenMsg(1))
}

func (n *tokenNode) Recv(ctx Context, from NodeID, m *WireMsg) {
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
	Send(ctx, next, tokenMsg(hops+1))
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
		Send(ctx, 1, seqMsg(i))
	}
}

func (s *seqSender) Recv(_ Context, _ NodeID, m *WireMsg) {
	s.got = append(s.got, int(m.W[0]))
}

func TestFIFOOrdering(t *testing.T) {
	g := graph.Path(2)
	const count = 64
	factory := func(id NodeID, _ []NodeID) Protocol { return &seqSender{id: id, count: count} }

	for name, eng := range map[string]Engine{
		"event": &EventEngine{Delay: UniformDelay(0.01), Seed: 5, FIFO: true},
		"async": &AsyncEngine{},
	} {
		protos, _, err := eng.Run(g.Compile(), factory)
		if err != nil {
			t.Fatal(err)
		}
		got := protos[1].(*seqSender).got
		if len(got) != count {
			t.Fatalf("%s: received %d of %d", name, len(got), count)
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("%s: FIFO violated at position %d: got %d", name, i, v)
			}
		}
	}

	// Without FIFO the same seed must reorder at least one pair (delays are
	// i.i.d. over 64 messages, so a monotone outcome would be astonishing).
	eng := &EventEngine{Delay: UniformDelay(0.01), Seed: 5, FIFO: false}
	protos, _, err := eng.Run(g.Compile(), factory)
	if err != nil {
		t.Fatal(err)
	}
	got := protos[1].(*seqSender).got
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
		Send(ctx, 99, tokenMsg(0))
	}
}
func (b *badSender) Recv(Context, NodeID, *WireMsg) {}

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

// chainReaction floods to test the run guard: every delivery of a
// round-h record answers with a round-h+1 record, so a ring of 4 carries 8
// records per round and opens a new protocol round every round.
type chainReaction struct{}

func (chainReaction) Init(ctx Context) {
	for _, w := range ctx.Neighbors() {
		Send(ctx, w, krMsg(0))
	}
}
func (chainReaction) Recv(ctx Context, from NodeID, m *WireMsg) {
	Send(ctx, from, krMsg(int(m.W[0])+1))
}

// stuckAt is chainReaction that stops opening rounds at round r: from
// then on every record answers with another round-r record, forever.
type stuckAt int

func (s stuckAt) Init(ctx Context) { chainReaction{}.Init(ctx) }
func (s stuckAt) Recv(ctx Context, from NodeID, m *WireMsg) {
	Send(ctx, from, krMsg(min(int(m.W[0])+1, int(s))))
}

// TestLivelockGuard pins the typed budget abort of a protocol stuck in
// protocol round 1 on every single-process tier. The window follows from
// the graph (16·(n+m) = 128 deliveries on a ring of 4). The round tier
// opens round 1 by its second round (16 deliveries) and aborts at the
// barrier before the round that would pass the window: after 16+128. The
// per-delivery tiers abort before the delivery that would pass it, and
// ReferenceEngine under the wheel tier's delays aborts where the wheel
// tier does.
func TestLivelockGuard(t *testing.T) {
	c := graph.Ring(4).Compile()
	delay := UniformDelay(0.5)
	engines := map[string]Engine{
		"rounds":    &EventEngine{Delay: UnitDelay},
		"wheel":     &EventEngine{Delay: delay, Seed: 1},
		"reference": &ReferenceEngine{Delay: delay, Seed: 1},
	}
	got := map[string]*BudgetError{}
	for name, eng := range engines {
		_, _, err := eng.Run(c, func(NodeID, []NodeID) Protocol { return stuckAt(1) })
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("%s: want *BudgetError, got %v", name, err)
		}
		if be.Limit != Window(c, 1) || be.Limit != 128 || be.Rounds != 1 {
			t.Errorf("%s: aborted in round %d under window %d, want round 1 under 128", name, be.Rounds, be.Limit)
		}
		if !strings.Contains(be.Error(), "protocol round above 1 within a window of 128 deliveries") {
			t.Errorf("%s: error %q does not name the round and the window", name, be.Error())
		}
		got[name] = be
	}
	if got["rounds"].Messages != 16+128 {
		t.Errorf("round tier aborted after %d messages, want %d", got["rounds"].Messages, 16+128)
	}
	if *got["wheel"] != *got["reference"] {
		t.Errorf("wheel tier aborted at %+v, ReferenceEngine at %+v", *got["wheel"], *got["reference"])
	}
	if m := got["wheel"].Messages; m <= 128 || m > 16+128 {
		t.Errorf("wheel tier aborted after %d messages, want one window past its first round-1 delivery", m)
	}
}

// TestLivelockEndsAtRoundBound: a livelock that keeps opening rounds never
// trips the guard; every tier ends it where the report's round domain
// does, with the *WireError naming round 2^16.
func TestLivelockEndsAtRoundBound(t *testing.T) {
	c := graph.Ring(4).Compile()
	engines := map[string]Engine{
		"rounds":    &EventEngine{Delay: UnitDelay},
		"wheel":     &EventEngine{Delay: UniformDelay(0.5), Seed: 1},
		"reference": &ReferenceEngine{Delay: UnitDelay},
	}
	for name, eng := range engines {
		_, _, err := eng.Run(c, func(NodeID, []NodeID) Protocol { return chainReaction{} })
		var we *WireError
		if !errors.As(err, &we) || !strings.Contains(we.Reason, fmt.Sprintf("round %d outside", maxRounds)) {
			t.Errorf("%s: want the round-domain *WireError, got %v", name, err)
		}
	}
}

// runReport returns a running report over nodes 0..3 that counted the
// records, sent by dense node from, as deliveries at causal depth depth.
func runReport(depth int64, from int32, msgs ...WireMsg) *Report {
	r := newRunReport(new(counters), []NodeID{0, 1, 2, 3})
	for i := range msgs {
		r.countPlay(1, depth)
		r.countMsg(from, &msgs[i])
	}
	return r
}

func TestReportMerge(t *testing.T) {
	a := runReport(3, 1, tokenMsg(0))
	b := runReport(5, 2, tokenMsg(0), seqMsg(0))
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
	if want := []KindRoundCount{{opToken, 0, 2}, {opSeq, 0, 1}}; !slices.Equal(a.KindRounds(), want) {
		t.Errorf("kind rounds = %v, want %v", a.KindRounds(), want)
	}
	if want := []SentByCount{{1, 1}, {2, 2}}; !slices.Equal(a.SentBy(), want) {
		t.Errorf("sent by = %v, want %v", a.SentBy(), want)
	}
}

// TestMergeParallel pins the exported merge semantics: counters sum,
// time-like measures take the maximum, and a report merged while it still
// runs keeps counting (DistEngine merges its runner's report at every
// commit).
func TestMergeParallel(t *testing.T) {
	tok := tokenMsg(1)
	for _, running := range []bool{false, true} {
		a := runReport(4, 1, tok, tok, tok)
		b := runReport(9, 1, tok, tok)
		a.VirtualTime, b.VirtualTime = 2.5, 1.5
		if !running {
			a.Finalize()
			b.Finalize()
		}
		a.MergeParallel(b)
		if a.Messages != 5 || a.CausalDepth != 9 || a.VirtualTime != 2.5 {
			t.Fatalf("running=%v: merged %+v", running, a)
		}
		if a.ByKind["token"] != 5 || !slices.Equal(a.SentBy(), []SentByCount{{1, 5}}) {
			t.Fatalf("running=%v: breakdowns %v %v", running, a.ByKind, a.SentBy())
		}
		if running {
			b.countPlay(1, 9)
			b.countMsg(1, &tok)
			if !slices.Equal(b.KindRounds(), []KindRoundCount{{opToken, 0, 3}}) {
				t.Fatalf("merged report stopped counting: %v", b.KindRounds())
			}
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
		"async":     &AsyncEngine{},
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
		Send(ctx, ctx.Neighbors()[0], tokenMsg(1))
	}
}

func (p *panicNode) Recv(ctx Context, from NodeID, m *WireMsg) {
	p.seen++
	if p.seen >= p.at {
		panic("boom")
	}
	Send(ctx, ctx.Neighbors()[0], tokenMsg(int(m.W[0])+1))
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

// krMsg is a kr.round record of the given round.
func krMsg(round int) WireMsg {
	return WireMsg{Op: krWire.Op(0), Nw: 1, W: [MaxPayloadWords]int64{int64(round)}}
}
