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
// micro-benchmarks run through testing.Benchmark, emitted as JSON and gated
// in CI against BENCH_wire.json: the EventEngine scheduler tiers (round
// engine under unit delays, calendar queue under random delays) measured
// against the unoptimised ReferenceEngine oracle, the parallel experiment
// harness measured against sequential execution, and large-graph flood
// workloads up to a million-node grid that pin the scaling the README
// claims.

type perfEntry struct {
	Name        string `json:"name"`
	Iterations  int    `json:"iterations"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
}

type perfReport struct {
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Workloads  []perfEntry       `json:"workloads"`
	Derived    map[string]string `json:"derived"`
	// Net carries the -netbench suite's per-cell wire counters (entry name
	// -> NetStats accumulated over every measured iteration). Absent from
	// the -perf suite; the compare gate ignores it.
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

// benchFloodSnap floods a pre-compiled workload. The snapshot is built
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

func runPerf(path string, parallel int) (*perfReport, error) {
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
	// The large tier: flood (pure engine throughput) over the catalog's
	// 4k-node to 1M-node graphs on the unit-delay round engine. Generated
	// lazily — they are the dominant setup cost of the suite.
	for _, w := range workload.Large() {
		name := "flood/" + w.Name + "/event-engine"
		fmt.Fprintf(os.Stderr, "mdstbench: large workload %s...\n", name)
		rep.Workloads = append(rep.Workloads, benchToEntry(name, benchFloodSnap(w.Gen().Compile(), unit)))
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

	if err := writeReport(path, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// writeReport writes rep as indented JSON to path ("-" for stdout) and
// echoes its derived figures on stderr.
func writeReport(path string, rep *perfReport) error {
	if err := writeTo(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}); err != nil {
		return err
	}
	for k, v := range rep.Derived {
		fmt.Fprintf(os.Stderr, "mdstbench: %-38s %s\n", k, v)
	}
	return nil
}
