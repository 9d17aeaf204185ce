package mdst_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// compatInstance is the run behind the testdata checkpoints: the graph and
// flood start of
//
//	mdstrun -graph gnm -n 32 -seed 1 -initial flood -mode hybrid -checkpoint F -checkpoint-round 2
func compatInstance(t *testing.T) (*graph.CSR, *tree.Dense) {
	t.Helper()
	c := graph.Gnm(32, 96, 1).Compile()
	t0, _, err := spanning.Build(unitFIFO(), c, spanning.NewFloodFactory(c, c.Index().ID(0)))
	if err != nil {
		t.Fatal(err)
	}
	return c, t0
}

func unitFIFO() *sim.EventEngine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }

// typedCheckpointError reports whether err is one of the typed failures a
// foreign checkpoint must produce.
func typedCheckpointError(err error) bool {
	var ce *sim.CheckpointError
	var we *sim.WireError
	return errors.As(err, &ce) || errors.As(err, &we)
}

// TestOldCheckpointRefused resumes checkpoints of earlier layouts:
//   - gnm32-hybrid-round2.mdck, written before the deg, child and rounddone
//     records widened and the node state gained its format word and X bit;
//   - gnm32-hybrid-round2-format2.mdck, written before the start, move,
//     cut and bfsback records widened and the node state (format 2) gained
//     its subtree sizes and labels;
//   - gnm32-hybrid-round2-format3.mdck, written before Multi rounds gained
//     their grants and the state of a node in a Multi round (format 3)
//     gained the grant fields;
//   - gnm32-hybrid-round2-format4.mdck and gnm32-single-round2-format3.mdck,
//     written before the node state gained the published degrees (format
//     5, DESIGN.md deviation 8): the first holds nodes in a Multi round
//     (format 4), the second nodes in a Single round (format 3);
//   - gnm32-hybrid-round2-format5.mdck and gnm32-single-round2-format5.mdck,
//     written before the node state gained the part of the SearchDegree
//     aggregate a Single round's wave keeps apart (format 6, deviation 9).
//
// Reading or resuming any of them must fail with a typed error; none may
// resume into a run. The last five must fail on the state format itself.
func TestOldCheckpointRefused(t *testing.T) {
	for _, tc := range []struct {
		file   string
		mode   mdst.Mode
		reason string // the state-format refusal, if the file gets that far
	}{
		{"gnm32-hybrid-round2.mdck", mdst.Hybrid, ""},
		{"gnm32-hybrid-round2-format2.mdck", mdst.Hybrid, ""},
		{"gnm32-hybrid-round2-format3.mdck", mdst.Hybrid, "mdst format 3, this binary reads 6"},
		{"gnm32-hybrid-round2-format4.mdck", mdst.Hybrid, "mdst format 4, this binary reads 6"},
		{"gnm32-single-round2-format3.mdck", mdst.Single, "mdst format 3, this binary reads 6"},
		{"gnm32-hybrid-round2-format5.mdck", mdst.Hybrid, "mdst format 5, this binary reads 6"},
		{"gnm32-single-round2-format5.mdck", mdst.Single, "mdst format 5, this binary reads 6"},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		ck, err := sim.ReadCheckpoint(bytes.NewReader(raw))
		if err == nil {
			c, t0 := compatInstance(t)
			_, err = mdst.Resume(unitFIFO(), c, t0, tc.mode, 0, ck)
			if err == nil {
				t.Fatalf("%s: an old-format checkpoint resumed into a run", tc.file)
			}
		}
		if !typedCheckpointError(err) {
			t.Fatalf("%s: old checkpoint failed untyped: %v", tc.file, err)
		}
		var ce *sim.CheckpointError
		if tc.reason != "" && (!errors.As(err, &ce) || !strings.Contains(ce.Reason, tc.reason)) {
			t.Fatalf("%s: %v, want the refusal %q", tc.file, err, tc.reason)
		}
	}
}

// freeze runs the compat instance to its round-2 barrier and returns the
// checkpoint it wrote.
func freeze(t *testing.T, c *graph.CSR, t0 *tree.Dense) *sim.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	eng := unitFIFO()
	eng.Checkpoint = &sim.CheckpointSpec{Round: 2, W: &buf}
	if _, err := mdst.Run(eng, c, t0, mdst.Hybrid, 0); !errors.Is(err, sim.ErrCheckpointed) {
		t.Fatalf("run did not freeze: %v", err)
	}
	ck, err := sim.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return ck
}

// TestStateFormatRefused strips the leading format word from every node
// state of a fresh checkpoint, which leaves states that open the way the
// first layout did, and requires the resume to fail typed.
func TestStateFormatRefused(t *testing.T) {
	c, t0 := compatInstance(t)
	ck := freeze(t, c, t0)
	for i := range ck.States {
		ck.States[i] = ck.States[i][1:] // the format word is one varint byte
	}
	_, err := mdst.Resume(unitFIFO(), c, t0, mdst.Hybrid, 0, ck)
	var ce *sim.CheckpointError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "format") {
		t.Fatalf("resume of format-less states: %v, want the state format refusal", err)
	}
}

// TestCraftedStateRefused resumes fresh checkpoints in which one node's
// state claims an implausible count or phase, and requires each resume to
// fail with *sim.CheckpointError. A state is a run of varints that opens
// with the format, phase, parent, hasParent, the children list, the subtree-size
// list, sized, fixChild, fixBase and then the belief list, and closes with
// the deferred-message count (zero at a FIFO barrier, so the state holds
// no wire record).
func TestCraftedStateRefused(t *testing.T) {
	c, t0 := compatInstance(t)
	for _, tc := range []struct {
		name   string
		craft  func(fields []int64) // edits the state's fields in place
		reason string
	}{
		{"phase", func(f []int64) { f[1] = 7 }, "phase 7"},
		{"size count", func(f []int64) { f[5+f[4]]++ }, "subtree sizes"},
		{"belief count", func(f []int64) { f[9+f[4]+f[5+f[4]]]-- }, "published degrees"},
		{"negative deferred count", func(f []int64) { f[len(f)-1] = -1 }, "deferred"},
		{"huge deferred count", func(f []int64) { f[len(f)-1] = 1<<20 + 1 }, "deferred"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := freeze(t, c, t0)
			i := slices.IndexFunc(ck.States, func(s []byte) bool { return varints(t, s)[4] > 0 })
			f := varints(t, ck.States[i])
			if f[len(f)-1] != 0 {
				t.Fatalf("node state %d holds deferred messages at a FIFO barrier", i)
			}
			tc.craft(f)
			var blob []byte
			for _, v := range f {
				blob = binary.AppendVarint(blob, v)
			}
			ck.States[i] = blob
			_, err := mdst.Resume(unitFIFO(), c, t0, mdst.Hybrid, 0, ck)
			var ce *sim.CheckpointError
			if !errors.As(err, &ce) || !strings.Contains(ce.Reason, tc.reason) {
				t.Fatalf("resume of a state with a crafted %s: %v, want a checkpoint error about %s", tc.name, err, tc.reason)
			}
		})
	}
}

// varints splits a node state into its varint fields.
func varints(t *testing.T, blob []byte) []int64 {
	t.Helper()
	var f []int64
	for len(blob) > 0 {
		v, n := binary.Varint(blob)
		if n <= 0 {
			t.Fatal("node state is not a run of varints")
		}
		f = append(f, v)
		blob = blob[n:]
	}
	return f
}
