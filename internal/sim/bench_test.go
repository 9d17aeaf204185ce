package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"mdegst/internal/graph"
)

// floodBench is a minimal O(m) protocol used to measure raw engine
// throughput without algorithm cost.
type floodBench struct {
	id   NodeID
	seen bool
}

func floodMsg() WireMsg { return WireMsg{Op: opFlood} }

func (f *floodBench) Init(ctx Context) {
	if f.id != 0 {
		return
	}
	f.seen = true
	for _, w := range ctx.Neighbors() {
		ctx.Send(w, floodMsg())
	}
}

func (f *floodBench) Recv(ctx Context, from NodeID, _ WireMsg) {
	if f.seen {
		return
	}
	f.seen = true
	for _, w := range ctx.Neighbors() {
		if w != from {
			ctx.Send(w, floodMsg())
		}
	}
}

func benchFactory(id NodeID, _ []NodeID) Protocol { return &floodBench{id: id} }

// BenchmarkEventEngineFlood measures event-engine message throughput and
// allocations on the optimised fast path.
func BenchmarkEventEngineFlood(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		g := graph.Gnm(n, 4*n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				_, rep, err := (&EventEngine{Delay: UnitDelay}).Run(g.Compile(), benchFactory)
				if err != nil {
					b.Fatal(err)
				}
				msgs = rep.Messages
			}
			b.ReportMetric(float64(msgs), "msgs")
		})
	}
}

// BenchmarkReferenceEngineFlood is the same workload on the unoptimised
// oracle engine; the gap to BenchmarkEventEngineFlood is the measured win of
// the fast path (event boxing, map FIFO clamps, per-message key formatting).
func BenchmarkReferenceEngineFlood(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		g := graph.Gnm(n, 4*n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := (&ReferenceEngine{Delay: UnitDelay}).Run(g.Compile(), benchFactory); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEventEngineFloodLarge measures the round engine at the scale the
// bounded-delay schedulers unlocked, on the gnm-4096 graph of the root
// package's BenchmarkLargeFlood.
func BenchmarkEventEngineFloodLarge(b *testing.B) {
	c := graph.Gnm(4096, 16384, 1).Compile()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := (&EventEngine{Delay: UnitDelay}).Run(c, benchFactory); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCalendarQueueSparse drives a schedule with one event per time
// unit over thousands of units — the wheel's worst case, where pop crosses
// hundreds of empty buckets per delivery and leans on the occupancy bitmap.
func BenchmarkCalendarQueueSparse(b *testing.B) {
	g := graph.Ring(64)
	// wrapped unit delay defeats round-engine selection, forcing the wheel
	// while keeping the sparse one-event-per-unit schedule.
	almostUnit := func(rng *rand.Rand, from, to NodeID) float64 { return 1 }
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := (&EventEngine{Delay: almostUnit, FIFO: true}).Run(g.Compile(), tokenFactory(4000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEventEngineFIFORandom includes the FIFO bookkeeping and RNG cost.
func BenchmarkEventEngineFIFORandom(b *testing.B) {
	g := graph.Gnm(256, 1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := (&EventEngine{Delay: UniformDelay(0.05), FIFO: true, Seed: int64(i)}).Run(g.Compile(), benchFactory); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReferenceEngineFIFORandom is the oracle-engine counterpart.
func BenchmarkReferenceEngineFIFORandom(b *testing.B) {
	g := graph.Gnm(256, 1024, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := (&ReferenceEngine{Delay: UniformDelay(0.05), FIFO: true, Seed: int64(i)}).Run(g.Compile(), benchFactory); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsyncEngineFlood measures goroutine-engine throughput (mailboxes,
// scheduling, quiescence detection).
func BenchmarkAsyncEngineFlood(b *testing.B) {
	for _, n := range []int{64, 256} {
		g := graph.Gnm(n, 4*n, 1)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := (&AsyncEngine{}).Run(g.Compile(), benchFactory); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
