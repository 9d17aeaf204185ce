// Package mdst implements the paper's contribution: the first distributed
// approximation algorithm for the Minimum Degree Spanning Tree problem on
// general graphs (Blin & Butelle, IPPS 2003 / IJFCS 2004).
//
// Starting from an arbitrary rooted spanning tree, the protocol runs rounds
// of
//
//	SearchDegree -> MoveRoot -> Cut -> BFS wave -> Choose/Update/Child
//
// until no exchange can lower the maximum degree (a Locally Optimal Tree)
// or the tree is a chain (k = 2). Each round costs O(m) messages and O(n)
// time; with k the initial and k* the final degree the paper bounds the
// whole run by O((k-k*)·m) messages and O((k-k*)·n) time.
//
// Two modes are provided: Single (the base algorithm, one exchange per
// round) and Multi (paper §3.2.6, every maximum-degree node exchanges
// concurrently). See DESIGN.md for the precise semantics chosen where the
// paper is underspecified.
package mdst

import (
	"fmt"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// Result summarises one improvement run.
type Result struct {
	// Tree is the final spanning tree (validated against the graph).
	Tree *tree.Tree
	// Report carries the message/time accounting of the run.
	Report *sim.Report
	// Rounds is the number of protocol rounds executed, including the
	// final no-improvement (or k<=2) round.
	Rounds int
	// Swaps is the total number of edge exchanges applied.
	Swaps int
	// InitialDegree and FinalDegree are the maximum tree degrees before
	// and after improvement.
	InitialDegree int
	FinalDegree   int
}

// Run executes the improvement protocol on the engine over the snapshot,
// starting from the given spanning tree of it, and returns the validated
// result. A positive target stops the protocol as soon as the maximum
// degree is at most target (the paper's "cannot exceed a given value k"
// variant); 0 improves to local optimality.
func Run(eng sim.Engine, c *graph.CSR, initial *tree.Dense, mode Mode, target int) (*Result, error) {
	if err := initial.Validate(c); err != nil {
		return nil, fmt.Errorf("mdst: initial tree invalid: %w", err)
	}
	protos, rep, err := eng.Run(c, NewFactory(mode, target, initial))
	if err != nil {
		return nil, err
	}
	return extract(c, initial, protos, rep)
}

// Resume continues a checkpointed improvement run: the factory is rebuilt
// from the same initial tree and mode, the engine restores the frozen
// states and pending messages, and the completed Result — tree, report,
// rounds, swaps — is identical to the uninterrupted run's.
func Resume(eng sim.ResumableEngine, c *graph.CSR, initial *tree.Dense, mode Mode, target int, ck *sim.Checkpoint) (*Result, error) {
	if err := initial.Validate(c); err != nil {
		return nil, fmt.Errorf("mdst: initial tree invalid: %w", err)
	}
	protos, rep, err := eng.Resume(c, NewFactory(mode, target, initial), ck)
	if err != nil {
		return nil, err
	}
	return extract(c, initial, protos, rep)
}

// extract assembles a Result from the engine's dense final protocol states.
// The final tree is read and proved a spanning tree of c by
// spanning.Extract, which every mdst Node satisfies.
func extract(c *graph.CSR, initial *tree.Dense, protos []sim.Protocol, rep *sim.Report) (*Result, error) {
	rounds, swaps := 0, 0
	for i, p := range protos {
		node, ok := p.(*Node)
		if !ok {
			return nil, fmt.Errorf("mdst: node %d runs %T, not the mdst protocol", c.Index().ID(int32(i)), p)
		}
		rounds = max(rounds, node.Round())
		swaps += node.Swaps()
	}
	final, err := spanning.Extract(c, protos)
	if err != nil {
		return nil, fmt.Errorf("mdst: final tree: %w", err)
	}
	initDeg, _ := initial.MaxDegree(nil)
	finalDeg, _ := final.MaxDegree(nil)
	return &Result{
		Tree:          final.ToTree(),
		Report:        rep,
		Rounds:        rounds,
		Swaps:         swaps,
		InitialDegree: initDeg,
		FinalDegree:   finalDeg,
	}, nil
}
