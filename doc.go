// Package mdegst is a Go implementation of the first distributed
// approximation algorithm for the Minimum Degree Spanning Tree problem on
// general graphs (Lélia Blin & Franck Butelle, IPPS 2003 / IJFCS 2004),
// together with everything needed to run and evaluate it: an asynchronous
// message-passing network simulator with deterministic and true-concurrency
// engines, distributed spanning-tree construction substrates (flooding,
// token DFS, GHS, leader election), sequential baselines (a step-exact twin
// of the protocol and the Fürer–Raghavachari local search it builds on), an
// exact solver for ground truth, and an experiment harness reproducing the
// paper's complexity and quality claims.
//
// # Quick start
//
//	g := mdegst.Gnp(64, 0.1, 1)           // random connected network
//	res, err := mdegst.Run(g, mdegst.Options{})
//	if err != nil { ... }
//	fmt.Println(res.InitialDegree, "->", res.FinalDegree)
//
// Run builds an initial spanning tree with a distributed protocol, then
// improves it with the paper's algorithm; Result carries the trees and the
// message/time accounting of both phases. Use Improve to start from your
// own spanning tree, and Options to pick the protocol mode, the initial
// tree construction, and the simulation engine.
//
// Graph is the mutable builder representation; Compile freezes it into an
// immutable dense-index snapshot (CompiledGraph) that engines and
// algorithms execute over. When running many pipelines over one topology,
// compile once and use the *Compiled entry points (RunCompiled,
// ImproveCompiled, BuildSpanningTreeCompiled) — the plain functions are
// equivalent but recompile per call. See DESIGN.md §5.
//
// # Experiments
//
// RunExperiments executes the paper's evaluation tables (E1..E10 plus the
// A1..A3 ablations) by decomposing each table into independent seeded
// trials and fanning them across a worker pool:
//
//	tables, err := mdegst.RunExperiments(nil, mdegst.ExperimentOptions{Parallel: 8})
//	for _, t := range tables { t.Fprint(os.Stdout) }
//
// For a fixed ExperimentOptions configuration the tables are deterministic:
// bit-identical at any Parallel value. WriteExperimentsJSON emits the same
// tables on a machine-readable JSON surface, shared with the mdstbench
// -json flag. Performance is measured by the pipeline benchmark in bench/;
// allocation budgets per workload are ordinary Go tests.
//
// The packages under internal/ hold the implementations; this package is
// the stable surface: Graph and Tree are aliases of the internal types, so
// values flow freely between the façade and the internals.
package mdegst
