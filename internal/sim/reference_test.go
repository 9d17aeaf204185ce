package sim

import (
	"reflect"
	"testing"

	"mdegst/internal/graph"
)

// TestEventMatchesReference is the differential test behind the fast path:
// for identical seeds, EventEngine (specialised heap, pooled scratch,
// slice-indexed FIFO clamps) must deliver exactly the same schedule as
// ReferenceEngine (container/heap, map clamps), hence produce identical
// reports and identical protocol end states.
func TestEventMatchesReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"ring":      graph.Ring(16),
		"gnp":       graph.Gnp(24, 0.3, 42),
		"gnm-dense": graph.Gnm(32, 128, 7),
	}
	configs := []struct {
		name  string
		delay DelayFn
		fifo  bool
		seed  int64
	}{
		{"unit-fifo", UnitDelay, true, 0},
		{"unit-nofifo", UnitDelay, false, 0},
		{"random-fifo", UniformDelay(0.05), true, 11},
		{"random-nofifo", UniformDelay(0.05), false, 11},
		// Unbounded-below delays can undershoot the wheel's bucket width,
		// forcing sorted inserts into the live bucket.
		{"tiny-fifo", UniformDelay(0), true, 23},
	}
	for gname, g := range graphs {
		for _, c := range configs {
			t.Run(gname+"/"+c.name, func(t *testing.T) {
				fast := &EventEngine{Delay: c.delay, FIFO: c.fifo, Seed: c.seed}
				ref := &ReferenceEngine{Delay: c.delay, FIFO: c.fifo, Seed: c.seed}
				fp, frep, err := fast.Run(g.Compile(), tokenFactory(60))
				if err != nil {
					t.Fatal(err)
				}
				rp, rrep, err := ref.Run(g.Compile(), tokenFactory(60))
				if err != nil {
					t.Fatal(err)
				}
				if frep.Messages != rrep.Messages || frep.Words != rrep.Words ||
					frep.CausalDepth != rrep.CausalDepth || frep.VirtualTime != rrep.VirtualTime {
					t.Errorf("report scalars differ:\nfast %+v\nref  %+v", frep, rrep)
				}
				if !reflect.DeepEqual(frep.ByKindRound, rrep.ByKindRound) {
					t.Errorf("ByKindRound differ: %v vs %v", frep.ByKindRound, rrep.ByKindRound)
				}
				if !reflect.DeepEqual(frep.SentBy, rrep.SentBy) {
					t.Errorf("SentBy differ: %v vs %v", frep.SentBy, rrep.SentBy)
				}
				for v, p := range fp {
					if got, want := p.(*tokenNode).seen, rp[v].(*tokenNode).seen; got != want {
						t.Errorf("node %d saw %d tokens on fast engine, %d on reference", v, got, want)
					}
				}
			})
		}
	}
}

// TestEventMatchesReferenceTrace compares full delivery traces, the
// strongest equivalence: same (time, from, to, kind) sequence event by event.
func TestEventMatchesReferenceTrace(t *testing.T) {
	g := graph.Gnp(20, 0.3, 3)
	type step struct {
		t        float64
		from, to NodeID
		kind     string
	}
	collect := func(eng Engine) []step {
		var steps []step
		switch e := eng.(type) {
		case *EventEngine:
			e.Trace = func(ev TraceEvent) {
				steps = append(steps, step{ev.Time, ev.From, ev.To, ev.Msg.Kind()})
			}
		case *ReferenceEngine:
			e.Trace = func(ev TraceEvent) {
				steps = append(steps, step{ev.Time, ev.From, ev.To, ev.Msg.Kind()})
			}
		}
		if _, _, err := eng.Run(g.Compile(), tokenFactory(50)); err != nil {
			t.Fatal(err)
		}
		return steps
	}
	fast := collect(&EventEngine{Delay: UniformDelay(0.05), FIFO: true, Seed: 21})
	ref := collect(&ReferenceEngine{Delay: UniformDelay(0.05), FIFO: true, Seed: 21})
	if !reflect.DeepEqual(fast, ref) {
		t.Fatalf("delivery traces diverge:\nfast %v\nref  %v", fast, ref)
	}
}

// TestCalendarQueueFIFOTraceGnm512 is the FIFO-clamp stress for the calendar
// queue at a scale where thousands of events share the wheel: a randomized
// flood over gnm-512 under UniformDelay(0.05) must match ReferenceEngine's
// delivery trace event for event, and every directed link must deliver at
// non-decreasing times (the clamp invariant the wheel's window bound relies
// on).
func TestCalendarQueueFIFOTraceGnm512(t *testing.T) {
	g := graph.Gnm(512, 1536, 17)
	type step struct {
		t        float64
		from, to NodeID
		kind     string
	}
	// chatter floods on Init and bounces every received message back until a
	// per-node budget runs out: many concurrent events share the wheel and
	// every link carries repeated traffic, so the FIFO clamp binds often.
	chatter := func(id NodeID, _ []NodeID) Protocol { return &chatterNode{budget: 12} }
	collect := func(mk func(func(TraceEvent)) Engine) []step {
		var steps []step
		eng := mk(func(ev TraceEvent) {
			steps = append(steps, step{ev.Time, ev.From, ev.To, ev.Msg.Kind()})
		})
		if _, _, err := eng.Run(g.Compile(), chatter); err != nil {
			t.Fatal(err)
		}
		return steps
	}
	for seed := int64(0); seed < 3; seed++ {
		fast := collect(func(tr func(TraceEvent)) Engine {
			return &EventEngine{Delay: UniformDelay(0.05), FIFO: true, Seed: seed, Trace: tr}
		})
		ref := collect(func(tr func(TraceEvent)) Engine {
			return &ReferenceEngine{Delay: UniformDelay(0.05), FIFO: true, Seed: seed, Trace: tr}
		})
		if len(fast) != len(ref) {
			t.Fatalf("seed %d: trace lengths diverge: %d vs %d", seed, len(fast), len(ref))
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("seed %d: traces diverge at event %d: %+v vs %+v", seed, i, fast[i], ref[i])
			}
		}
		lastOnLink := make(map[[2]NodeID]float64)
		for i, s := range fast {
			link := [2]NodeID{s.from, s.to}
			if last, ok := lastOnLink[link]; ok && s.t < last {
				t.Fatalf("seed %d: FIFO violated on link %d->%d at event %d: %v after %v",
					seed, s.from, s.to, i, s.t, last)
			}
			lastOnLink[link] = s.t
		}
	}
}

// chatterNode floods its neighbourhood on Init and echoes each received
// message back to its sender while it has budget left.
type chatterNode struct{ budget int }

func (c *chatterNode) Init(ctx Context) {
	for _, w := range ctx.Neighbors() {
		ctx.Send(w, tokenMsg(1))
	}
}

func (c *chatterNode) Recv(ctx Context, from NodeID, _ WireMsg) {
	if c.budget == 0 {
		return
	}
	c.budget--
	ctx.Send(from, tokenMsg(1))
}

// TestEventEngineScratchReuse runs the same workload repeatedly so the pooled
// scratch state is exercised: a stale FIFO clamp or a pinned queue slot from
// a previous run would break determinism or FIFO order here.
func TestEventEngineScratchReuse(t *testing.T) {
	g := graph.Gnp(24, 0.3, 42)
	var first *Report
	for i := 0; i < 5; i++ {
		eng := &EventEngine{Delay: UniformDelay(0.05), Seed: 99, FIFO: true}
		_, rep, err := eng.Run(g.Compile(), tokenFactory(40))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = rep
			continue
		}
		if rep.Messages != first.Messages || rep.VirtualTime != first.VirtualTime {
			t.Fatalf("run %d diverged after scratch reuse: %+v vs %+v", i, rep, first)
		}
	}
	// Interleave a differently-shaped graph to force scratch resizing.
	if _, _, err := (&EventEngine{}).Run(graph.Ring(100).Compile(), tokenFactory(10)); err != nil {
		t.Fatal(err)
	}
	_, rep, err := (&EventEngine{Delay: UniformDelay(0.05), Seed: 99, FIFO: true}).Run(g.Compile(), tokenFactory(40))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != first.Messages || rep.VirtualTime != first.VirtualTime {
		t.Fatalf("diverged after scratch resize: %+v vs %+v", rep, first)
	}
}
