package net

import (
	"errors"
	"fmt"
	"io"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// The deployment pipeline: what one mdstd process executes once its mesh
// is established. Two engine runs back to back over the shared transport —
// the flood spanning-tree build, then the improvement protocol — exactly
// mirroring the in-process facade pipeline, with optional barrier
// checkpointing of the improvement phase as crash recovery. Every process
// runs the identical pipeline and finishes holding the identical result;
// the daemon just decides who prints it.

// Pipeline configures one distributed pipeline run. All processes of a
// deployment must use identical values (the topology config file is the
// single source of truth).
type Pipeline struct {
	// Mode is the improvement variant.
	Mode mdst.Mode
	// Target stops improvement at this maximum degree (0: full optimality).
	Target int
	// CheckpointRound, when >= 0, freezes the improvement phase at that
	// round barrier; process 0 writes the file to CheckpointW and the
	// pipeline returns with Checkpointed set instead of a final tree.
	CheckpointRound int64
	// CheckpointW receives the checkpoint file on process 0.
	CheckpointW io.Writer
	// CheckpointEvery, when > 0, arms the periodic cadence instead: the
	// improvement phase commits a recovery point through CheckpointSink at
	// every barrier whose round is a positive multiple of Every and keeps
	// running. Composes with Resume — the recovered run re-commits its
	// later cadence barriers byte-identically.
	CheckpointEvery int64
	// CheckpointSink receives periodic commits on process 0 (a
	// *sim.CheckpointDir in production).
	CheckpointSink sim.CheckpointSink
	// Resume, when non-nil, continues a checkpointed improvement run
	// (every process must be handed the same checkpoint — each reads the
	// file itself; no state is redistributed).
	Resume *sim.Checkpoint
	// Stop, polled at round barriers, requests a graceful cluster-wide
	// stop: the pipeline finishes the round in flight, commits a final
	// checkpoint when checkpointing is armed, and returns with Stopped set.
	Stop func() bool
	// Stats, when non-nil, accumulates the engine's wire and barrier
	// counters across both pipeline phases (mdstd -phases prints them).
	Stats *NetStats
}

// PipelineResult is the outcome of one distributed pipeline run.
type PipelineResult struct {
	// Checkpointed reports that the improvement phase froze at the armed
	// barrier (Result is nil; Initial and Setup are still populated).
	Checkpointed bool
	// Stopped reports a graceful cluster-wide stop before completion
	// (Result is nil; Initial and Setup are populated when the stop hit
	// the improvement phase, nil when it hit the flood build).
	Stopped bool
	// Initial is the flood spanning tree, Setup its message accounting.
	Initial *tree.Dense
	Setup   *sim.Report
	// Result is the completed improvement run.
	Result *mdst.Result
}

// RunPipeline executes the distributed pipeline over an established mesh.
// The initial tree is the flood protocol from the minimum insertion-order
// node — the same deterministic choice as the facade default — because the
// final-state all-gather requires StateCodec, which of the spanning
// protocols only flood implements.
func RunPipeline(t *Transport, c *graph.CSR, owner []int32, p Pipeline) (*PipelineResult, error) {
	if p.Resume != nil && p.CheckpointRound >= 0 {
		return nil, fmt.Errorf("net: pipeline cannot freeze-checkpoint and resume at once")
	}
	if p.CheckpointEvery > 0 && p.CheckpointRound >= 0 {
		return nil, fmt.Errorf("net: pipeline cannot freeze and commit periodically at once")
	}
	eng := &DistEngine{T: t, Owner: owner, Stop: p.Stop, Stats: p.Stats}
	root := c.Source().Nodes()[0]
	initial, setup, err := spanning.Build(eng, c, spanning.NewFloodFactory(c, root))
	if errors.Is(err, sim.ErrStopped) {
		return &PipelineResult{Stopped: true}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("net: flood phase: %w", err)
	}
	out := &PipelineResult{Initial: initial, Setup: setup}
	if p.CheckpointEvery > 0 {
		eng.Checkpoint = &sim.CheckpointSpec{Every: p.CheckpointEvery, Sink: p.CheckpointSink}
	} else if p.CheckpointRound >= 0 && p.Resume == nil {
		eng.Checkpoint = &sim.CheckpointSpec{Round: p.CheckpointRound, W: p.CheckpointW}
	}
	var res *mdst.Result
	if p.Resume != nil {
		res, err = mdst.Resume(eng, c, initial, p.Mode, p.Target, p.Resume)
	} else {
		res, err = mdst.Run(eng, c, initial, p.Mode, p.Target)
	}
	switch {
	case err == nil:
		out.Result = res
		return out, nil
	case errors.Is(err, sim.ErrCheckpointed):
		out.Checkpointed = true
		return out, nil
	case errors.Is(err, sim.ErrStopped):
		out.Stopped = true
		return out, nil
	default:
		phase := "improvement phase"
		if p.Resume != nil {
			phase = "improvement resume"
		}
		return nil, fmt.Errorf("net: %s: %w", phase, err)
	}
}
