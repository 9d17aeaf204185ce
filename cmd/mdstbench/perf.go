package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"mdegst/internal/exp"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	mdnet "mdegst/internal/net"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
	"mdegst/internal/workload"
)

// The perf suite behind `mdstbench -perf`: a fixed-seed set of
// micro-benchmarks run through testing.Benchmark, emitted as JSON. It
// maintains the repository's performance trajectory (BENCH_baseline.json ->
// BENCH_csr.json -> BENCH_queue.json): the EventEngine scheduler tiers
// (round engine under unit delays, calendar queue under random delays)
// measured against the unoptimised ReferenceEngine oracle, the parallel
// experiment harness measured against sequential execution, and — since the
// bounded-delay schedulers made them affordable — large-graph flood
// workloads up to a 100k-node grid that pin the scaling the README claims.

type perfEntry struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// Shards and Procs annotate the -scale suite's axis (0 on the classic
	// perf entries, whose names already carry any width that matters).
	Shards int `json:"shards,omitempty"`
	Procs  int `json:"procs,omitempty"`
}

type perfReport struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []perfEntry       `json:"workloads"`
	Derived    map[string]string `json:"derived"`
	// Phases carries the -scaling suite's per-phase breakdown when recorded
	// with -phases: entry name -> PhaseStats accumulated over every measured
	// iteration of that cell (divide by Rounds for per-round costs). Absent
	// from the classic -perf suite and from baselines recorded without the
	// flag; the compare gate ignores it.
	Phases map[string]*sim.PhaseStats `json:"phases,omitempty"`
	// Net carries the -netbench suite's per-cell wire counters (entry name
	// -> NetStats accumulated over every measured iteration). Absent from
	// the other suites; the compare gate ignores it.
	Net map[string]*mdnet.NetStats `json:"net,omitempty"`
}

func benchToEntry(name string, r testing.BenchmarkResult) perfEntry {
	return perfEntry{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// benchEngine runs the full improvement protocol (wheel-free Gnm workload,
// star start, hybrid mode) on the given engine construction. Like
// benchFlood it compiles the snapshot (and converts the start tree over
// it) per iteration, to stay comparable with the recorded trajectory.
func benchEngine(mk func() sim.Engine) testing.BenchmarkResult {
	g := graph.Gnm(96, 288, 1)
	t0, err := spanning.StarTree(g)
	if err != nil {
		panic(err)
	}
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := g.Compile()
			d, err := tree.FromTree(t0, c.Index())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := mdst.Run(mk(), c, d, mdst.Hybrid, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchFlood runs the engine-bound spanning-tree flood on a denser graph,
// isolating simulator overhead from protocol logic. It recompiles the
// snapshot per iteration, deliberately: the entry predates the large-graph
// suite and stays methodologically identical to the recorded trajectory.
func benchFlood(mk func() sim.Engine) testing.BenchmarkResult {
	g := graph.Gnm(256, 1024, 1)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := g.Compile()
			if _, _, err := spanning.Build(mk(), c, spanning.NewFloodFactory(c, g.Nodes()[0])); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchFloodSnap floods a pre-compiled workload. The snapshot (and, for
// the sharded entries, the partition inside the engine maker) is built
// once outside the timed loop — at 100k+ nodes recompiling the CSR per
// iteration would dominate the engine being measured.
func benchFloodSnap(c *graph.CSR, mk func() sim.Engine) testing.BenchmarkResult {
	root := c.Index().ID(0)
	return testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := spanning.Build(mk(), c, spanning.NewFloodFactory(c, root)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchHarness runs a fixed-seed quick sweep through the experiment runner
// at the given worker count.
func benchHarness(parallel int) testing.BenchmarkResult {
	cfg := exp.Config{Seeds: 2, Scale: 0.25}
	ids := []string{"E1", "E3", "E5"}
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&exp.Runner{Config: cfg, Parallel: parallel}).Run(ids); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func ratio(num, den int64) string {
	if num == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.1fx", float64(den)/float64(num))
}

// largeWorkloads are the scale tier the bounded-delay schedulers unlocked:
// flood (pure engine throughput) over the catalog's 4k–100k graphs, run on
// the unit-delay round engine. Generated lazily — they are the dominant
// setup cost of the suite.
func largeWorkloads() []struct {
	name string
	gen  func() *graph.Graph
} {
	out := make([]struct {
		name string
		gen  func() *graph.Graph
	}, 0, len(workload.Large()))
	for _, w := range workload.Large() {
		out = append(out, struct {
			name string
			gen  func() *graph.Graph
		}{"flood/" + w.Name + "/event-engine", w.Gen})
	}
	return out
}

func runPerf(path string, parallel, shards int) (*perfReport, error) {
	unit := func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }
	ref := func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UnitDelay, FIFO: true} }
	uniform := func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.05), FIFO: true, Seed: 1} }
	refUniform := func() sim.Engine { return &sim.ReferenceEngine{Delay: sim.UniformDelay(0.05), FIFO: true, Seed: 1} }
	workers := parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	fmt.Fprintln(os.Stderr, "mdstbench: running perf suite (scheduler tiers vs reference, harness parallel vs sequential, large graphs)...")
	event := benchEngine(unit)
	reference := benchEngine(ref)
	eventFlood := benchFlood(unit)
	referenceFlood := benchFlood(ref)
	wheelFlood := benchFlood(uniform)
	refUniformFlood := benchFlood(refUniform)
	seq := benchHarness(1)

	rep := perfReport{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workloads: []perfEntry{
			benchToEntry("mdst-hybrid/gnm-96/event-engine", event),
			benchToEntry("mdst-hybrid/gnm-96/reference-engine", reference),
			benchToEntry("flood/gnm-256/event-engine", eventFlood),
			benchToEntry("flood/gnm-256/reference-engine", referenceFlood),
			benchToEntry("flood/gnm-256/event-uniform", wheelFlood),
			benchToEntry("flood/gnm-256/reference-uniform", refUniformFlood),
			benchToEntry("harness/E1,E3,E5-quick/parallel=1", seq),
		},
		Derived: map[string]string{
			"engine_allocs_reduction": ratio(event.AllocsPerOp(), reference.AllocsPerOp()),
			"engine_time_speedup":     ratio(event.NsPerOp(), reference.NsPerOp()),
			"flood_allocs_reduction":  ratio(eventFlood.AllocsPerOp(), referenceFlood.AllocsPerOp()),
			"flood_time_speedup":      ratio(eventFlood.NsPerOp(), referenceFlood.NsPerOp()),
			"wheel_time_speedup":      ratio(wheelFlood.NsPerOp(), refUniformFlood.NsPerOp()),
		},
	}
	large := make(map[string]testing.BenchmarkResult)
	for _, w := range largeWorkloads() {
		fmt.Fprintf(os.Stderr, "mdstbench: large workload %s...\n", w.name)
		res := benchFloodSnap(w.gen().Compile(), unit)
		large[w.name] = res
		rep.Workloads = append(rep.Workloads, benchToEntry(w.name, res))
	}

	// Shard-partitioned scaling tier (the BENCH_shard.json trajectory):
	// the grid-100k flood plus the grid-1M flood, single-shard vs the
	// sharded runtime on a precomputed contiguous partition. Entry names
	// carry the shard count so the -compare gate never diffs runs of
	// different widths; speedup is hardware-bound (min(shards, GOMAXPROCS)
	// cores drive the window phases — on one core the ratio measures pure
	// runtime overhead, and the report's gomaxprocs field says which it
	// was).
	shardTier := []struct {
		base string
		gen  func() *graph.Graph
	}{
		{"grid-100k", workload.Grid100k},
		{"grid-1M", workload.Grid1M},
	}
	for _, w := range shardTier {
		singleName := fmt.Sprintf("flood/%s/event-engine", w.base)
		shardedName := fmt.Sprintf("flood/%s/sharded-%d", w.base, shards)
		fmt.Fprintf(os.Stderr, "mdstbench: shard tier %s (%d shards)...\n", w.base, shards)
		c := w.gen().Compile()
		single, ok := large[singleName]
		if !ok {
			single = benchFloodSnap(c, unit)
			rep.Workloads = append(rep.Workloads, benchToEntry(singleName, single))
		}
		part := graph.PartitionContiguous(c, shards)
		sharded := benchFloodSnap(c, func() sim.Engine {
			return &sim.ShardedEngine{Partition: part, Delay: sim.UnitDelay, FIFO: true}
		})
		rep.Workloads = append(rep.Workloads, benchToEntry(shardedName, sharded))
		rep.Derived[fmt.Sprintf("shard_speedup_%s", w.base)] = ratio(sharded.NsPerOp(), single.NsPerOp())
		rep.Derived[fmt.Sprintf("shard_cut_fraction_%s", w.base)] = fmt.Sprintf("%.1f%%", 100*part.CutFraction())
	}
	if cores := runtime.GOMAXPROCS(0); cores < shards {
		rep.Derived["shard_note"] = fmt.Sprintf(
			"sharded entries recorded at GOMAXPROCS=%d < %d shards: the phases ran inline, so the ratios measure the sharded plane's overhead, not parallel speedup", cores, shards)
	}
	// The parallel-harness measurement only exists on multi-core machines;
	// on one core it would duplicate the sequential entry under a second
	// name. Its entry name carries the worker count, so the -compare gate
	// only diffs it against a baseline recorded at the same width.
	if workers > 1 {
		par := benchHarness(workers)
		rep.Workloads = append(rep.Workloads, benchToEntry(fmt.Sprintf("harness/E1,E3,E5-quick/parallel=%d", workers), par))
		rep.Derived["harness_parallel_speedup"] = ratio(par.NsPerOp(), seq.NsPerOp())
	} else {
		rep.Derived["harness_parallel_speedup"] = "n/a (1 worker)"
	}

	if err := writeTo(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		return nil, err
	}
	for k, v := range rep.Derived {
		fmt.Fprintf(os.Stderr, "mdstbench: %-26s %s\n", k, v)
	}
	return &rep, nil
}
