package sim

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mdegst/internal/graph"
)

// The differential corpus of the shard-partitioned runtime: N-shard runs
// must be delivery-trace- and report-equivalent to the 1-shard engine
// (EventEngine) and to ReferenceEngine, for both scheduler tiers, at any
// shard count and partition strategy. Workers is forced above 1 in the
// parallel tests so the cross-goroutine handoff is exercised (and raced
// under -race) even on single-core machines, where the engine would
// otherwise run its phases inline.

// shardCorpus returns the differential workload set shared by the sharded
// tests.
func shardCorpus() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ring":      graph.Ring(16),
		"gnp":       graph.Gnp(24, 0.3, 42),
		"gnm-dense": graph.Gnm(32, 128, 7),
		"ba-hubs":   graph.BarabasiAlbert(48, 2, 3),
		"grid":      graph.Grid(6, 7),
	}
}

// reportsEquivalent compares every observable Report field except Wall
// (host-time dependent) and Shards (describes the runtime configuration,
// not the execution). Both reports are finalized by the public accessors.
func reportsEquivalent(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if got.Messages != want.Messages || got.Words != want.Words ||
		got.MaxWords != want.MaxWords || got.CausalDepth != want.CausalDepth ||
		got.VirtualTime != want.VirtualTime || got.Rounds() != want.Rounds() {
		t.Errorf("%s: report scalars differ:\ngot  %+v\nwant %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.ByKind, want.ByKind) {
		t.Errorf("%s: ByKind differ: %v vs %v", label, got.ByKind, want.ByKind)
	}
	if !reflect.DeepEqual(got.ByRound, want.ByRound) {
		t.Errorf("%s: ByRound differ: %v vs %v", label, got.ByRound, want.ByRound)
	}
	if !reflect.DeepEqual(got.ByKindRound, want.ByKindRound) {
		t.Errorf("%s: ByKindRound differ: %v vs %v", label, got.ByKindRound, want.ByKindRound)
	}
	if !reflect.DeepEqual(got.SentBy, want.SentBy) {
		t.Errorf("%s: SentBy differ: %v vs %v", label, got.SentBy, want.SentBy)
	}
}

// TestShardedMatchesEventUnit pins the round path: for every corpus graph,
// shard count and protocol, the parallel sharded schedule must equal the
// single-shard event engine — identical reports and identical final
// protocol states (per-node Recv sequences feed protocol state, so state
// equality is Recv-order equality in disguise).
func TestShardedMatchesEventUnit(t *testing.T) {
	protocols := map[string]Factory{
		"token":   tokenFactory(60),
		"chatter": func(id NodeID, _ []NodeID) Protocol { return &chatterNode{budget: 8} },
	}
	for gname, g := range shardCorpus() {
		c := g.Compile()
		for pname, f := range protocols {
			want, wantRep, err := (&EventEngine{Delay: UnitDelay, FIFO: true}).Run(c, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{2, 3, 5, 8} {
				t.Run(gname+"/"+pname+"/shards="+itoa(shards), func(t *testing.T) {
					eng := &ShardedEngine{Shards: shards, Workers: shards, Delay: UnitDelay, FIFO: true}
					got, gotRep, err := eng.Run(c, f)
					if err != nil {
						t.Fatal(err)
					}
					reportsEquivalent(t, "sharded vs event", gotRep, wantRep)
					if gotRep.Shards != min(shards, c.N()) {
						t.Errorf("merged report claims %d shards, engine ran %d", gotRep.Shards, shards)
					}
					for v, p := range got {
						if !reflect.DeepEqual(protoState(p), protoState(want[v])) {
							t.Errorf("node %d protocol state diverged: %+v vs %+v", v, p, want[v])
						}
					}
				})
			}
		}
	}
}

// protoState extracts the comparable state of the test protocols.
func protoState(p Protocol) any {
	switch v := p.(type) {
	case *tokenNode:
		return v.seen
	case *chatterNode:
		return v.budget
	default:
		return p
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestShardedMatchesReferenceUniform pins the randomised-delay path: the
// sharded wheels popped in global (time, seq) order must reproduce
// ReferenceEngine's delivery trace event by event for identical seeds,
// FIFO on and off.
func TestShardedMatchesReferenceUniform(t *testing.T) {
	g := graph.Gnm(48, 160, 11)
	type step struct {
		t        float64
		from, to NodeID
		kind     string
	}
	for _, fifo := range []bool{true, false} {
		for _, shards := range []int{2, 4, 7} {
			var got, want []step
			sh := &ShardedEngine{Shards: shards, Delay: UniformDelay(0.05), FIFO: fifo, Seed: 9,
				Trace: func(ev TraceEvent) { got = append(got, step{ev.Time, ev.From, ev.To, ev.Msg.Kind()}) }}
			ref := &ReferenceEngine{Delay: UniformDelay(0.05), FIFO: fifo, Seed: 9,
				Trace: func(ev TraceEvent) { want = append(want, step{ev.Time, ev.From, ev.To, ev.Msg.Kind()}) }}
			_, gotRep, err := sh.Run(g.Compile(), tokenFactory(50))
			if err != nil {
				t.Fatal(err)
			}
			_, wantRep, err := ref.Run(g.Compile(), tokenFactory(50))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("fifo=%v shards=%d: delivery traces diverge (%d vs %d events)", fifo, shards, len(got), len(want))
			}
			reportsEquivalent(t, "sharded-wheel vs reference", gotRep, wantRep)
		}
	}
}

// TestShardedTraceUnit pins the traced round path (the serial schedule):
// same delivery trace as the 1-shard round engine, including Logf notes
// interleaved at their exact positions.
func TestShardedTraceUnit(t *testing.T) {
	g := graph.Gnp(20, 0.3, 3)
	type step struct {
		t        float64
		from, to NodeID
		kind     string // "" for Logf notes, note text in kind
	}
	collect := func(eng Engine) []step {
		var steps []step
		tr := func(ev TraceEvent) {
			if !ev.IsMessage() {
				steps = append(steps, step{ev.Time, 0, ev.To, "note:" + ev.Note})
				return
			}
			steps = append(steps, step{ev.Time, ev.From, ev.To, ev.Msg.Kind()})
		}
		switch e := eng.(type) {
		case *EventEngine:
			e.Trace = tr
		case *ShardedEngine:
			e.Trace = tr
		}
		if _, _, err := eng.Run(g.Compile(), loggingTokenFactory(40)); err != nil {
			t.Fatal(err)
		}
		return steps
	}
	want := collect(&EventEngine{Delay: UnitDelay, FIFO: true})
	for _, shards := range []int{2, 4} {
		got := collect(&ShardedEngine{Shards: shards, Delay: UnitDelay, FIFO: true})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: traced round schedule diverges (%d vs %d events)", shards, len(got), len(want))
		}
	}
}

// loggingTokenFactory wraps the token protocol with a Logf note per
// handler call, so trace tests cover note ordering too.
func loggingTokenFactory(limit int) Factory {
	inner := tokenFactory(limit)
	return func(id NodeID, nbrs []NodeID) Protocol {
		return &loggingProto{p: inner(id, nbrs)}
	}
}

type loggingProto struct{ p Protocol }

func (l *loggingProto) Init(ctx Context) {
	ctx.Logf("init %d", ctx.ID())
	l.p.Init(ctx)
}

func (l *loggingProto) Recv(ctx Context, from NodeID, m WireMsg) {
	ctx.Logf("recv %d<-%d", ctx.ID(), from)
	l.p.Recv(ctx, from, m)
}

// TestShardedPartitionStrategies pins that the shard assignment never
// changes what a run computes: contiguous and BFS partitions (and the
// engine's own default) produce identical reports and protocol states.
func TestShardedPartitionStrategies(t *testing.T) {
	for gname, g := range shardCorpus() {
		c := g.Compile()
		want, wantRep, err := (&EventEngine{Delay: UnitDelay, FIFO: true}).Run(c, tokenFactory(60))
		if err != nil {
			t.Fatal(err)
		}
		for _, part := range []*graph.Partition{
			graph.PartitionContiguous(c, 4),
			graph.PartitionBFS(c, 4),
			graph.PartitionBFS(c, 3),
		} {
			if err := part.Validate(c); err != nil {
				t.Fatalf("%s: %v", gname, err)
			}
			eng := &ShardedEngine{Partition: part, Workers: part.Shards(), Delay: UnitDelay, FIFO: true}
			got, gotRep, err := eng.Run(c, tokenFactory(60))
			if err != nil {
				t.Fatal(err)
			}
			reportsEquivalent(t, gname+" partitioned", gotRep, wantRep)
			for v, p := range got {
				if !reflect.DeepEqual(protoState(p), protoState(want[v])) {
					t.Errorf("%s: node %d state diverged under partition", gname, v)
				}
			}
		}
		// A partition disagreeing with Shards is rejected, not silently
		// repartitioned.
		bad := &ShardedEngine{Shards: 2, Partition: graph.PartitionContiguous(c, 4), Delay: UnitDelay}
		if _, _, err := bad.Run(c, tokenFactory(10)); err == nil || !strings.Contains(err.Error(), "disagrees") {
			t.Errorf("%s: mismatched Shards/Partition accepted: %v", gname, err)
		}
	}
}

// TestShardedReportMerge is the report-merge contract: single-shard and
// multi-shard runs produce identical Report fields (counts by kind and
// round, words, causal depth, completion time) across the corpus and both
// scheduler tiers. Runs execute concurrently so `go test -race` covers the
// merged accounting and the parallel round phases together.
func TestShardedReportMerge(t *testing.T) {
	type cfg struct {
		name  string
		delay DelayFn
		fifo  bool
	}
	configs := []cfg{
		{"unit", UnitDelay, true},
		{"uniform", UniformDelay(0.05), true},
	}
	for gname, g := range shardCorpus() {
		c := g.Compile()
		for _, cf := range configs {
			_, want, err := (&ShardedEngine{Shards: 1, Delay: cf.delay, FIFO: cf.fifo, Seed: 5}).Run(c, tokenFactory(40))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, shards := range []int{2, 4, 8} {
				wg.Add(1)
				go func(shards int) {
					defer wg.Done()
					eng := &ShardedEngine{Shards: shards, Workers: shards, Delay: cf.delay, FIFO: cf.fifo, Seed: 5}
					_, got, err := eng.Run(c, tokenFactory(40))
					if err != nil {
						t.Errorf("%s/%s shards=%d: %v", gname, cf.name, shards, err)
						return
					}
					reportsEquivalent(t, gname+"/"+cf.name+"/shards="+itoa(shards), got, want)
				}(shards)
			}
			wg.Wait()
		}
	}
}

// TestShardedScratchReuse runs sharded workloads back to back (including
// shape and shard-count changes) so the pooled per-shard slabs are reused;
// stale outbox entries, ranks or parities would break determinism here.
func TestShardedScratchReuse(t *testing.T) {
	g := graph.Gnm(40, 140, 13)
	c := g.Compile()
	var first *Report
	for i := 0; i < 5; i++ {
		eng := &ShardedEngine{Shards: 4, Workers: 2, Delay: UnitDelay, FIFO: true}
		_, rep, err := eng.Run(c, tokenFactory(50))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
			continue
		}
		reportsEquivalent(t, "reuse run "+itoa(i), rep, first)
	}
	// Interleave different shapes and shard counts to force slab resizing.
	if _, _, err := (&ShardedEngine{Shards: 7, Workers: 3, Delay: UnitDelay}).Run(graph.Ring(100).Compile(), tokenFactory(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := (&ShardedEngine{Shards: 2, Workers: 2, Delay: UnitDelay}).Run(graph.Ring(6).Compile(), tokenFactory(5)); err != nil {
		t.Fatal(err)
	}
	_, rep, err := (&ShardedEngine{Shards: 4, Workers: 2, Delay: UnitDelay, FIFO: true}).Run(c, tokenFactory(50))
	if err != nil {
		t.Fatal(err)
	}
	reportsEquivalent(t, "after resize", rep, first)
}

// TestShardedLivelock pins the message cap on the round path: a protocol
// that never quiesces must abort with the livelock error at a window
// barrier instead of running away.
func TestShardedLivelock(t *testing.T) {
	g := graph.Ring(8)
	eng := &ShardedEngine{Shards: 4, Workers: 2, Delay: UnitDelay, MaxMessages: 500}
	_, _, err := eng.Run(g.Compile(), func(id NodeID, _ []NodeID) Protocol { return &chatterNode{budget: 1 << 30} })
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != 500 || be.Messages < 500 {
		t.Fatalf("want a budget abort at or past 500 messages, got %v", err)
	}
}

// TestShardedMessageCapEquivalence pins the cap predicate against the
// single-shard engine on a protocol that quiesces: whenever the event
// engine accepts (or rejects) a cap, the sharded engine must agree — in
// particular a run whose final window crosses the cap must still error
// even though nothing is pending afterwards.
func TestShardedMessageCapEquivalence(t *testing.T) {
	c := graph.Gnm(48, 160, 3).Compile()
	flood := func(id NodeID, _ []NodeID) Protocol { return &chatterNode{budget: 4} }
	_, full, err := (&EventEngine{Delay: UnitDelay, FIFO: true}).Run(c, flood)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int64{full.Messages, full.Messages - 1, full.Messages / 2} {
		_, _, errEvent := (&EventEngine{Delay: UnitDelay, FIFO: true, MaxMessages: cap}).Run(c, flood)
		_, _, errShard := (&ShardedEngine{Shards: 4, Workers: 2, Delay: UnitDelay, FIFO: true, MaxMessages: cap}).Run(c, flood)
		if (errEvent == nil) != (errShard == nil) {
			t.Fatalf("cap %d (full run %d msgs): event engine err=%v, sharded err=%v",
				cap, full.Messages, errEvent, errShard)
		}
	}
}

// TestShardedProtocolPanic pins panic conversion across worker goroutines:
// a handler panic on any shard surfaces as the engine's error, with the
// workers torn down.
func TestShardedProtocolPanic(t *testing.T) {
	g := graph.Ring(12)
	boom := func(id NodeID, _ []NodeID) Protocol { return &panicNode{at: 5} }
	for _, shards := range []int{2, 4} {
		eng := &ShardedEngine{Shards: shards, Workers: shards, Delay: UnitDelay}
		_, _, err := eng.Run(g.Compile(), boom)
		if err == nil || !strings.Contains(err.Error(), "protocol panic") {
			t.Fatalf("shards=%d: want protocol panic error, got %v", shards, err)
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

// TestMergeParallel pins the exported merge semantics on both finalization
// states: counters sum, time-like measures take the maximum, Shards sums.
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
		if a.Messages != 5 || a.CausalDepth != 9 || a.VirtualTime != 2.5 || a.Shards != 2 {
			t.Fatalf("preFinalize=%v: merged %+v", preFinalize, a)
		}
		if a.ByKind["token"] != 5 || a.SentBy[1] != 5 {
			t.Fatalf("preFinalize=%v: breakdowns %v %v", preFinalize, a.ByKind, a.SentBy)
		}
	}
}

// TestShardedOutboxAllocsFlat pins the flat-slab pooling of the sharded
// round path: after a warm-up run, the per-run allocation count must not
// scale with message volume — the outbox, merge and delivery buffers come
// from the pooled scratch, and the wire records inside them are flat
// values the GC never sees. (Per-run allocations that remain are the
// protocol instances, contexts and report maps, which depend on n and the
// shard count, not on traffic.)
func TestShardedOutboxAllocsFlat(t *testing.T) {
	c := graph.Gnm(64, 256, 11).Compile()
	part := graph.PartitionContiguous(c, 4)
	measure := func(hops int) float64 {
		run := func() {
			eng := &ShardedEngine{Shards: 4, Workers: 1, Partition: part, Delay: UnitDelay, FIFO: true}
			if _, _, err := eng.Run(c, tokenFactory(hops)); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the pooled slabs for this volume
		return testing.AllocsPerRun(5, run)
	}
	small, large := measure(20), measure(400)
	if large > small*1.25+16 {
		t.Errorf("allocs scale with traffic: %d hops -> %.0f allocs, %d hops -> %.0f allocs",
			20, small, 400, large)
	}
}

// TestShardedParallelScanEquivalence forces the chunk-parallel prefix scan
// (normally gated to wide windows) onto the small corpus: with the
// threshold dropped to one, every barrier runs the scan/shift phases
// across the workers, and results must still equal the 1-shard engine
// exactly.
func TestShardedParallelScanEquivalence(t *testing.T) {
	old := parallelScanMin
	parallelScanMin = 1
	defer func() { parallelScanMin = old }()
	for gname, g := range shardCorpus() {
		c := g.Compile()
		want, wantRep, err := (&EventEngine{Delay: UnitDelay, FIFO: true}).Run(c, tokenFactory(60))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 4, 8} {
			eng := &ShardedEngine{Shards: shards, Workers: shards, Delay: UnitDelay, FIFO: true}
			got, gotRep, err := eng.Run(c, tokenFactory(60))
			if err != nil {
				t.Fatal(err)
			}
			reportsEquivalent(t, gname+"/parallel-scan shards="+itoa(shards), gotRep, wantRep)
			for v, p := range got {
				if !reflect.DeepEqual(protoState(p), protoState(want[v])) {
					t.Errorf("%s shards=%d: node %d state diverged", gname, shards, v)
				}
			}
		}
	}
}

// TestShardedRefinedPartitionEquivalence runs the unit-delay differential
// corpus over PartitionRefined ownerships: the cut-minimizing partition
// must be as trace-exact as the balanced ones at every shard count.
func TestShardedRefinedPartitionEquivalence(t *testing.T) {
	for gname, g := range shardCorpus() {
		c := g.Compile()
		want, wantRep, err := (&EventEngine{Delay: UnitDelay, FIFO: true}).Run(c, tokenFactory(60))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 5} {
			part, err := graph.PartitionNamed(c, "refined", shards)
			if err != nil {
				t.Fatal(err)
			}
			eng := &ShardedEngine{Partition: part, Workers: shards, Delay: UnitDelay, FIFO: true}
			got, gotRep, err := eng.Run(c, tokenFactory(60))
			if err != nil {
				t.Fatal(err)
			}
			reportsEquivalent(t, gname+"/refined shards="+itoa(shards), gotRep, wantRep)
			for v, p := range got {
				if !reflect.DeepEqual(protoState(p), protoState(want[v])) {
					t.Errorf("%s shards=%d: node %d state diverged", gname, shards, v)
				}
			}
		}
	}
}

// TestShardedWheelSpeculativeWindows stresses the speculative per-shard
// window rule of the randomised-delay tier: near-zero delays make almost
// every cross-shard send land inside the window being drained, so the
// limit-tightening path (not just the tournament) decides the order. The
// trace must match ReferenceEngine event for event, FIFO on and off, at
// every shard count and for both partition strategies' traffic shapes.
func TestShardedWheelSpeculativeWindows(t *testing.T) {
	type step struct {
		t       float64
		seqFrom NodeID
		seqTo   NodeID
		kind    string
	}
	graphs := map[string]*graph.Graph{
		"gnm":  graph.Gnm(40, 140, 5),
		"grid": graph.Grid(6, 6),
	}
	delays := map[string]DelayFn{
		"tiny":    UniformDelay(0), // delays collapse toward the Nextafter floor
		"uniform": UniformDelay(0.3),
	}
	for gname, g := range graphs {
		c := g.Compile()
		for dname, d := range delays {
			for _, fifo := range []bool{true, false} {
				var want []step
				ref := &ReferenceEngine{Delay: d, FIFO: fifo, Seed: 21,
					Trace: func(ev TraceEvent) { want = append(want, step{ev.Time, ev.From, ev.To, ev.Msg.Kind()}) }}
				_, wantRep, err := ref.Run(c, func(id NodeID, _ []NodeID) Protocol { return &chatterNode{budget: 6} })
				if err != nil {
					t.Fatal(err)
				}
				for _, shards := range []int{2, 4, 7} {
					for _, strat := range []string{"contiguous", "refined"} {
						part, err := graph.PartitionNamed(c, strat, shards)
						if err != nil {
							t.Fatal(err)
						}
						var got []step
						sh := &ShardedEngine{Partition: part, Delay: d, FIFO: fifo, Seed: 21,
							Trace: func(ev TraceEvent) { got = append(got, step{ev.Time, ev.From, ev.To, ev.Msg.Kind()}) }}
						_, gotRep, err := sh.Run(c, func(id NodeID, _ []NodeID) Protocol { return &chatterNode{budget: 6} })
						if err != nil {
							t.Fatal(err)
						}
						label := gname + "/" + dname + "/" + strat + "/shards=" + itoa(shards)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s fifo=%v: delivery traces diverge (%d vs %d events)", label, fifo, len(got), len(want))
						}
						reportsEquivalent(t, label, gotRep, wantRep)
					}
				}
			}
		}
	}
}
