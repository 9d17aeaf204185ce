package mdegst_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"mdegst"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// The checkpoint/resume differential corpus for the real protocols: an
// improvement run interrupted at EVERY round barrier and resumed must
// reproduce the uninterrupted run exactly — delivery trace (checkpoint-leg
// prefix + resume leg), Report and extracted spanning tree — in Single and
// Hybrid modes.
func TestMDSTCheckpointResumeEveryBarrier(t *testing.T) {
	g := mdegst.Gnm(48, 144, 7)
	c := mdegst.Compile(g)
	t0, _, err := mdegst.BuildSpanningTreeCompiled(c, mdegst.InitialFlood, mdegst.Options{})
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []mdegst.Mode{mdegst.ModeSingle, mdegst.ModeHybrid} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			opts := mdegst.Options{Mode: mode}

			// The uninterrupted run, with its trace.
			var fullTrace []sim.TraceEvent
			full, err := mdegst.ImproveCompiled(c, t0, mdegst.Options{
				Mode:   mode,
				Engine: traceEngine(func(e sim.TraceEvent) { fullTrace = append(fullTrace, e) }),
			})
			if err != nil {
				t.Fatal(err)
			}
			finalRound := int64(full.Improvement.VirtualTime)
			if finalRound < 3 {
				t.Fatalf("run too short for a barrier sweep: %d", finalRound)
			}

			// Sweep every barrier (bounded stride keeps long Hybrid runs
			// affordable while still crossing phase switches).
			stride := int64(1)
			if finalRound > 24 {
				stride = finalRound / 24
			}
			for r := int64(0); r <= finalRound; r += stride {
				var buf bytes.Buffer
				written, err := mdegst.CheckpointImprove(c, t0, opts, r, &buf)
				if err != nil {
					t.Fatalf("barrier %d: %v", r, err)
				}
				if !written {
					t.Fatalf("barrier %d not reached (finalRound %d)", r, finalRound)
				}
				res, err := mdegst.ResumeImprove(c, t0, opts, bytes.NewReader(buf.Bytes()))
				if err != nil {
					t.Fatalf("barrier %d resume: %v", r, err)
				}
				if !res.Final.Equal(full.Final) {
					t.Fatalf("barrier %d: resumed tree differs", r)
				}
				if res.Rounds != full.Rounds || res.Swaps != full.Swaps ||
					res.InitialDegree != full.InitialDegree || res.FinalDegree != full.FinalDegree {
					t.Fatalf("barrier %d: result scalars diverge: %+v vs %+v", r, res, full)
				}
				assertSameReport(t, fmt.Sprintf("barrier %d", r), res.Improvement, full.Improvement)
			}

			// One deep trace check mid-run: prefix + resume == full.
			mid := finalRound / 2
			var buf bytes.Buffer
			var prefix []sim.TraceEvent
			_, err = mdegst.ImproveCompiled(c, t0, mdegst.Options{
				Mode:   mode,
				Engine: checkpointTraceEngine(&sim.CheckpointSpec{Round: mid, W: &buf}, func(e sim.TraceEvent) { prefix = append(prefix, e) }),
			})
			if !errors.Is(err, sim.ErrCheckpointed) {
				t.Fatalf("checkpointing run: %v, want ErrCheckpointed", err)
			}
			ck, err := sim.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var resumeTrace []sim.TraceEvent
			reng := checkpointTraceEngine(nil, func(e sim.TraceEvent) { resumeTrace = append(resumeTrace, e) })
			if _, _, err := reng.Resume(c, improveFactory(t, c, mode, t0), ck); err != nil {
				t.Fatal(err)
			}
			whole := append(append([]sim.TraceEvent{}, prefix...), resumeTrace...)
			if !reflect.DeepEqual(whole, fullTrace) {
				t.Fatalf("stitched trace diverges at barrier %d: %d+%d vs %d events",
					mid, len(prefix), len(resumeTrace), len(fullTrace))
			}
		})
	}
}

// TestFloodCheckpointResume exercises the second StateCodec protocol: the
// flooding spanning-tree construction interrupted at every barrier.
func TestFloodCheckpointResume(t *testing.T) {
	g := mdegst.Gnm(40, 120, 3)
	c := mdegst.Compile(g)
	factory := spanning.NewFloodFactory(c, g.Nodes()[0])

	fullT, fullRep, err := spanning.Build(&sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}, c, factory)
	if err != nil {
		t.Fatal(err)
	}
	finalRound := int64(fullRep.VirtualTime)
	for r := int64(0); r <= finalRound; r++ {
		var buf bytes.Buffer
		eng := &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Checkpoint: &sim.CheckpointSpec{Round: r, W: &buf}}
		if _, _, err := eng.Run(c, factory); !errors.Is(err, sim.ErrCheckpointed) {
			t.Fatalf("barrier %d: %v, want ErrCheckpointed", r, err)
		}
		ck, err := sim.ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("barrier %d: %v", r, err)
		}
		protos, rep, err := (&sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}).Resume(c, factory, ck)
		if err != nil {
			t.Fatalf("barrier %d: %v", r, err)
		}
		tr, err := spanning.Extract(c, protos)
		if err != nil {
			t.Fatalf("barrier %d: %v", r, err)
		}
		if !tr.ToTree().Equal(fullT.ToTree()) {
			t.Fatalf("barrier %d: tree differs", r)
		}
		assertSameReport(t, fmt.Sprintf("flood barrier %d", r), rep, fullRep)
	}
}

// improveFactory is the improvement protocol factory used for the raw
// engine-level resume leg.
func improveFactory(t *testing.T, c *mdegst.CompiledGraph, mode mdegst.Mode, t0 *mdegst.Tree) sim.Factory {
	t.Helper()
	d, err := tree.FromTree(t0, c.Index())
	if err != nil {
		t.Fatal(err)
	}
	return mdst.NewFactory(mode, 0, d)
}

// traceEngine builds the tracing unit-delay engine.
func traceEngine(tr func(sim.TraceEvent)) mdegst.Engine {
	return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Trace: tr}
}

// checkpointTraceEngine is traceEngine with an armed checkpoint spec,
// returned as the concrete resumable type.
func checkpointTraceEngine(spec *sim.CheckpointSpec, tr func(sim.TraceEvent)) sim.ResumableEngine {
	return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Trace: tr, Checkpoint: spec}
}

// assertSameReport compares the deterministic fields of two finalized
// reports (Wall is host time and excluded).
func assertSameReport(t *testing.T, label string, got, want *mdegst.Report) {
	t.Helper()
	if got.Messages != want.Messages || got.Words != want.Words || got.MaxWords != want.MaxWords ||
		got.CausalDepth != want.CausalDepth || got.VirtualTime != want.VirtualTime {
		t.Fatalf("%s: report scalars diverge", label)
	}
	if !reflect.DeepEqual(got.ByKind, want.ByKind) || !reflect.DeepEqual(got.ByRound, want.ByRound) ||
		!reflect.DeepEqual(got.ByKindRound, want.ByKindRound) || !reflect.DeepEqual(got.SentBy, want.SentBy) {
		t.Fatalf("%s: report breakdowns diverge", label)
	}
}
