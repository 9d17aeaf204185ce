package mdegst_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"mdegst"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
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
			if _, _, err := reng.Resume(c, mdst.NewFactory(c, mode, 0, t0), ck); err != nil {
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
		if !tr.Equal(fullT) {
			t.Fatalf("barrier %d: tree differs", r)
		}
		assertSameReport(t, fmt.Sprintf("flood barrier %d", r), rep, fullRep)
	}
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
	if !reflect.DeepEqual(got.ByKind, want.ByKind) || !slices.Equal(got.KindRounds(), want.KindRounds()) ||
		!slices.Equal(got.SentBy(), want.SentBy()) {
		t.Fatalf("%s: report breakdowns diverge", label)
	}
}

// frozenRunDigests pins the byte form of a frozen run: two in-process
// checkpoint files and one binary trace of flood-start gnm(96, 288, 1),
// equal to what `mdstrun -graph gnm -n 96 -m 288 -seed 1 -mode M
// -checkpoint F -checkpoint-round R` and `-tracebin F` write. Any change
// to the shared codecs (counters block, kind table, state blobs, pending
// slab) must leave these bytes alone. (They were recorded again when the
// node state gained the published degrees of DESIGN.md deviation 8, format
// 5, and Single rounds stopped probing edges that cannot qualify, and
// again when most Single rounds stopped running the deg convergecast and
// the node state moved to format 6, deviation 9.)
var frozenRunDigests = map[string]string{
	"single/checkpoint-3":  "8c3b8d7b0805d9b4352be80f3555a4fa9b303de84ab80a16fb3f7394a201d07c",
	"hybrid/checkpoint-20": "a6a4e3300deb397773c56b8be37c3692272c6a4cef26c45f71150403d9fe04a1",
	"hybrid/tracebin":      "dfd7f7c964c68c354cd74dd848d1c7e047965f1a96caf9b41ed992a5ca26e2f4",
}

func TestFrozenRunBytesPinned(t *testing.T) {
	c := mdegst.Compile(mdegst.Gnm(96, 288, 1))
	t0, _, err := mdegst.BuildSpanningTreeCompiled(c, mdegst.InitialFlood, mdegst.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for _, tc := range []struct {
		name  string
		mode  mdegst.Mode
		round int64
	}{
		{"single/checkpoint-3", mdegst.ModeSingle, 3},
		{"hybrid/checkpoint-20", mdegst.ModeHybrid, 20},
	} {
		var buf bytes.Buffer
		written, err := mdegst.CheckpointImprove(c, t0, mdegst.Options{Seed: 1, Mode: tc.mode}, tc.round, &buf)
		if err != nil || !written {
			t.Fatalf("%s: written=%v err=%v", tc.name, written, err)
		}
		got[tc.name] = buf.Bytes()
	}
	var trace bytes.Buffer
	btw := mdegst.NewBinaryTraceWriter(&trace)
	if _, err := mdegst.RunCompiled(c, mdegst.Options{Seed: 1, Mode: mdegst.ModeHybrid, Engine: mdegst.NewTracingEngine(btw.Trace)}); err != nil {
		t.Fatal(err)
	}
	if err := btw.Close(); err != nil {
		t.Fatal(err)
	}
	got["hybrid/tracebin"] = trace.Bytes()
	for name, want := range frozenRunDigests {
		if d := fmt.Sprintf("%x", sha256.Sum256(got[name])); d != want {
			t.Errorf("%s: sha256 %s, want %s", name, d, want)
		}
	}
}
