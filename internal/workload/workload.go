// Package workload is the single catalog of the large benchmark graphs.
// The root bench suite, the internal/sim engine benches and the `mdstbench
// -perf`/`-netbench` suites all measure "the 100k grid" or "the 16k
// preferential-attachment graph" — before this catalog each spelled out its
// own generator call, and a drifted seed or size silently made trajectories
// incomparable. A workload name used anywhere in a BENCH_*.json file or a
// benchmark label resolves here and nowhere else.
package workload

import "mdegst/internal/graph"

// Workload names one benchmark graph. Gen is a fresh generation per call —
// the graphs are the dominant setup cost of the large suites, so callers
// generate lazily and compile once.
type Workload struct {
	Name string
	Gen  func() *graph.Graph
}

// Large is the large-graph flood tier of the perf suite (gated against
// BENCH_wire.json): raw engine throughput from 4k to 1M nodes.
func Large() []Workload {
	return []Workload{
		{"gnm-4096", Gnm4096},
		{"ba-16384", BA16384},
		{"grid-100k", Grid100k},
		{"grid-1M", Grid1M},
	}
}

// The named generators, fixed seed and size. These exact parameters are
// recorded in the BENCH_*.json baseline files; changing one invalidates
// every baseline that mentions its name.

func Gnm4096() *graph.Graph  { return graph.Gnm(4096, 16384, 1) }
func BA16384() *graph.Graph  { return graph.BarabasiAlbert(16384, 2, 1) }
func Grid100k() *graph.Graph { return graph.Grid(316, 316) }
func Grid1M() *graph.Graph   { return graph.Grid(1000, 1000) }
