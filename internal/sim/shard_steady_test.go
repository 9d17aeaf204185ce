package sim

import (
	"reflect"
	"runtime"
	"testing"

	"mdegst/internal/graph"
)

// TestShardedSteadyStateZeroAlloc pins the PR 9 arena contract: once the
// pooled slabs are warm, the sharded round loop allocates nothing per
// round — staging streams, inbox arenas, the count plane and the offset
// slab are all reused in place — so total allocations per run must not
// grow with the round count. The token walk runs one delivery per round,
// making "20x the rounds" a pure steady-state magnifier: any per-round or
// per-window allocation would show up 20-fold.
func TestShardedSteadyStateZeroAlloc(t *testing.T) {
	c := graph.Gnm(64, 256, 11).Compile()
	part := graph.PartitionContiguous(c, 4)
	for _, workers := range []int{1, 4} {
		measure := func(hops int) float64 {
			run := func() {
				eng := &ShardedEngine{Shards: 4, Workers: workers, Partition: part, Delay: UnitDelay, FIFO: true}
				if _, _, err := eng.Run(c, tokenFactory(hops)); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm the pooled slabs for this volume
			return testing.AllocsPerRun(10, run)
		}
		short, long := measure(40), measure(800)
		// The slack absorbs pool entries stolen by a GC mid-measure; the
		// steady state itself is exactly zero allocations per round.
		if long > short+16 {
			t.Errorf("workers=%d: allocs grew with round count: 40 hops -> %.0f, 800 hops -> %.0f",
				workers, short, long)
		}
	}
}

// TestShardedShardCountAllocBudget bounds how per-run allocations grow
// with the shard count: going 2 -> 8 shards may only add the fixed
// per-shard setup (a report, stage stream headers, worker bookkeeping),
// never anything traffic-proportional. The two measurements run the same
// workload, so any super-constant per-shard growth is a delivery-plane
// regression.
func TestShardedShardCountAllocBudget(t *testing.T) {
	c := graph.Gnm(64, 256, 11).Compile()
	measure := func(shards int) float64 {
		part := graph.PartitionContiguous(c, shards)
		run := func() {
			eng := &ShardedEngine{Shards: shards, Workers: shards, Partition: part, Delay: UnitDelay, FIFO: true}
			if _, _, err := eng.Run(c, tokenFactory(400)); err != nil {
				t.Fatal(err)
			}
		}
		run()
		return testing.AllocsPerRun(10, run)
	}
	small, large := measure(2), measure(8)
	// 6 extra shards x a generous 24-alloc setup budget each (report maps,
	// goroutine starts), plus the usual pool-theft slack.
	if large > small+6*24+16 {
		t.Errorf("allocs grew past the per-shard setup budget: 2 shards -> %.0f, 8 shards -> %.0f", small, large)
	}
}

// TestShardedOversubscribedSpinBarrier runs the spin-then-park barrier
// with far more workers than GOMAXPROCS: every phase forces workers
// through the yield/park paths (spinning alone would livelock a 2-proc
// schedule with 16 runnable workers), and the results must stay
// bit-identical to the event engine. The 'Shard' race leg in CI runs this
// under the race detector, which is what actually checks the barrier's
// publication ordering.
func TestShardedOversubscribedSpinBarrier(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for gname, g := range shardCorpus() {
		c := g.Compile()
		want, wantRep, err := (&EventEngine{Delay: UnitDelay, FIFO: true}).Run(c, tokenFactory(60))
		if err != nil {
			t.Fatal(err)
		}
		eng := &ShardedEngine{Shards: 16, Workers: 16, Delay: UnitDelay, FIFO: true}
		got, gotRep, err := eng.Run(c, tokenFactory(60))
		if err != nil {
			t.Fatal(err)
		}
		reportsEquivalent(t, gname+"/oversubscribed", gotRep, wantRep)
		for v, p := range got {
			if !reflect.DeepEqual(protoState(p), protoState(want[v])) {
				t.Errorf("%s: node %d state diverged under oversubscription", gname, v)
			}
		}
	}
}

// TestShardedPhaseStats exercises the armed instrumentation: the phase
// walls must cover every pipeline stage, the round counter must match the
// run's virtual time, and arming stats must not perturb the execution
// (same report as the event engine).
func TestShardedPhaseStats(t *testing.T) {
	c := graph.Grid(12, 12).Compile()
	_, wantRep, err := (&EventEngine{Delay: UnitDelay, FIFO: true}).Run(c, tokenFactory(80))
	if err != nil {
		t.Fatal(err)
	}
	st := &PhaseStats{}
	eng := &ShardedEngine{Shards: 4, Workers: 4, Delay: UnitDelay, FIFO: true, Stats: st}
	_, gotRep, err := eng.Run(c, tokenFactory(80))
	if err != nil {
		t.Fatal(err)
	}
	reportsEquivalent(t, "stats-armed", gotRep, wantRep)
	if st.Rounds != int64(gotRep.VirtualTime) {
		t.Errorf("stats counted %d rounds, report ran %.0f", st.Rounds, gotRep.VirtualTime)
	}
	if st.Init <= 0 || st.Deliver <= 0 || st.Scan <= 0 {
		t.Errorf("phase walls missing: init=%v deliver=%v scan=%v scatter=%v", st.Init, st.Deliver, st.Scan, st.Scatter)
	}
	if st.WorkerBusy <= 0 {
		t.Errorf("worker busy time not folded: %v", st.WorkerBusy)
	}
	// A second armed run accumulates on the same instance.
	before := st.Rounds
	if _, _, err := eng.Run(c, tokenFactory(80)); err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 2*before {
		t.Errorf("stats did not accumulate: %d rounds after two identical runs (first run: %d)", st.Rounds, before)
	}
}
