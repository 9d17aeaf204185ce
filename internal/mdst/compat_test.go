package mdst_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// compatInstance is the run behind testdata/gnm32-hybrid-round2.mdck: the
// graph and flood start of
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

// TestOldCheckpointRefused resumes a checkpoint written before the deg,
// child and rounddone records widened and the node state gained its format
// word and X bit. Reading or resuming it must fail with a typed error; it
// must never resume into a run.
func TestOldCheckpointRefused(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "gnm32-hybrid-round2.mdck"))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := sim.ReadCheckpoint(bytes.NewReader(raw))
	if err == nil {
		c, t0 := compatInstance(t)
		_, err = mdst.Resume(unitFIFO(), c, t0, mdst.Hybrid, 0, ck)
		if err == nil {
			t.Fatal("an old-format checkpoint resumed into a run")
		}
	}
	if !typedCheckpointError(err) {
		t.Fatalf("old checkpoint failed untyped: %v", err)
	}
}

// TestStateFormatRefused strips the leading format word from every node
// state of a fresh checkpoint, which leaves states that open the way the
// first layout did, and requires the resume to fail typed.
func TestStateFormatRefused(t *testing.T) {
	c, t0 := compatInstance(t)
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
	for i := range ck.States {
		ck.States[i] = ck.States[i][1:] // the format word is one varint byte
	}
	_, err = mdst.Resume(unitFIFO(), c, t0, mdst.Hybrid, 0, ck)
	var ce *sim.CheckpointError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "format") {
		t.Fatalf("resume of format-less states: %v, want the state format refusal", err)
	}
}
