package spanning

import (
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/workload"
)

// The race job's full-scale legs: the small differential corpus forces the
// parallel plane structurally, but only a large window makes the parallel
// prefix scan, the per-shard scatter and the speculative wheel windows run
// at their real widths under the race detector. Correctness (equivalence
// to the serial engines) is pinned elsewhere; these tests exist to put the
// actual hot paths in front of -race at scale.

// TestShardedDenseGrid100kFloodRaceScale floods the catalog's 100k-node
// grid through 8 shards on forced multi-goroutine workers, over the dense
// build path — the exact configuration of the scaling suite's largest
// parallel cell (windows there are wide enough to take the parallel-scan
// branch without lowering parallelScanMin).
func TestShardedDenseGrid100kFloodRaceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sharded run")
	}
	c := workload.Grid100k().Compile()
	root := c.Index().ID(0)
	part := graph.PartitionRefined(c, 8)
	eng := &sim.ShardedEngine{Shards: 8, Partition: part, Workers: 4, Delay: sim.UnitDelay, FIFO: true}
	tr, rep, err := Build(eng, c, NewFloodFactory(c, root))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(c); err != nil {
		t.Fatal(err)
	}
	if rep.Messages == 0 || rep.Shards != 8 {
		t.Fatalf("report implausible: %d messages, %d shards", rep.Messages, rep.Shards)
	}
}

// TestShardedWheelUniformDelayRaceScale drives the randomised-delay tier —
// speculative per-shard wheel windows — on a grid large enough for long
// window drains and frequent cross-shard limit tightenings.
func TestShardedWheelUniformDelayRaceScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sharded run")
	}
	c := graph.Grid(100, 100).Compile()
	root := c.Index().ID(0)
	part := graph.PartitionRefined(c, 8)
	eng := &sim.ShardedEngine{Shards: 8, Partition: part, Delay: sim.UniformDelay(0.3), Seed: 9, FIFO: true}
	tr, rep, err := Build(eng, c, NewFloodFactory(c, root))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(c); err != nil {
		t.Fatal(err)
	}
	if rep.Messages == 0 {
		t.Fatal("no messages delivered")
	}
}
