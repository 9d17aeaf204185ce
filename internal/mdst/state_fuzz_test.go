package mdst_test

import (
	"bytes"
	"errors"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
)

// FuzzNodeState walks arbitrary bytes into a fresh Single-mode node, a
// fresh Hybrid-mode node (which carries grant state) and a fresh
// FloodNode. Each walk must fail with a typed *sim.CheckpointError or
// *sim.WireError or succeed, never panic, and an accepted state must
// re-write and re-read to a fixed point. The corpus holds the real states
// of gnm-96 runs frozen at several barriers: the flood build, and the
// improvement protocol in Single and Hybrid mode (Multi rounds, Single
// rounds, the full Single round that learns the published degrees and
// deferred records).
func FuzzNodeState(f *testing.F) {
	c := graph.Gnm(96, 288, 1).Compile()
	root := c.Index().ID(0)
	t0, _, err := spanning.Build(unitFIFO(), c, spanning.NewFloodFactory(c, root))
	if err != nil {
		f.Fatal(err)
	}
	seen := map[string]bool{}
	seed := func(build func(*sim.EventEngine) error, fresh sim.Factory, rounds ...int64) {
		for _, r := range rounds {
			for _, st := range frozenStates(f, c, build, fresh, r) {
				if !seen[string(st)] {
					seen[string(st)] = true
					f.Add(st)
				}
			}
		}
	}
	flood := func(eng *sim.EventEngine) error {
		_, _, err := spanning.Build(eng, c, spanning.NewFloodFactory(c, root))
		return err
	}
	improve := func(mode mdst.Mode) func(*sim.EventEngine) error {
		return func(eng *sim.EventEngine) error {
			_, err := mdst.Run(eng, c, t0, mode, 0)
			return err
		}
	}
	seed(flood, spanning.NewFloodFactory(c, root), 1, 3)
	// Barrier 400 holds deferred records in both modes; a Hybrid run is in
	// Multi rounds up to about 1030, then in its full Single round at 1100
	// (learning the published degrees) and in Single rounds that know them
	// at 1500.
	seed(improve(mdst.Single), mdst.NewFactory(c, mdst.Single, 0, t0), 2, 400)
	seed(improve(mdst.Hybrid), mdst.NewFactory(c, mdst.Hybrid, 0, t0), 2, 400, 1100, 1500)
	f.Add([]byte{})

	// The fresh nodes: root has children, so a read may refill its lists
	// in place.
	fresh := []sim.Factory{
		mdst.NewFactory(c, mdst.Single, 0, t0),
		mdst.NewFactory(c, mdst.Hybrid, 0, t0),
		spanning.NewFloodFactory(c, root),
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		for _, mk := range fresh {
			p := mk(root, nil)
			if err := sim.StateReader(nil).Load(p, blob); err != nil {
				var ce *sim.CheckpointError
				var we *sim.WireError
				if !errors.As(err, &ce) && !errors.As(err, &we) {
					t.Fatalf("%T: error %v is neither *CheckpointError nor *WireError", p, err)
				}
				continue
			}
			once := writeState(t, p)
			p = mk(root, nil)
			if err := sim.StateReader(nil).Load(p, once); err != nil {
				t.Fatalf("%T: re-read of an accepted state failed: %v", p, err)
			}
			if twice := writeState(t, p); !bytes.Equal(once, twice) {
				t.Fatalf("%T: re-write is no fixed point:\n%x\n%x", p, once, twice)
			}
		}
	})
}

// frozenStates freezes the run build starts at barrier round and returns
// its node states with process-local opcodes: read from the checkpoint
// file into fresh nodes of the same protocol, then written again.
func frozenStates(t testing.TB, c *graph.CSR, build func(*sim.EventEngine) error, fresh sim.Factory, round int64) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	eng := &sim.EventEngine{Delay: sim.UnitDelay, Checkpoint: &sim.CheckpointSpec{Round: round, W: &buf}}
	if err := build(eng); !errors.Is(err, sim.ErrCheckpointed) {
		t.Fatalf("run did not freeze at round %d: %v", round, err)
	}
	ck, err := sim.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]sim.Protocol, c.N())
	for i := range protos {
		protos[i] = fresh(c.Index().ID(int32(i)), nil)
	}
	if err := ck.RestoreStates(protos); err != nil {
		t.Fatal(err)
	}
	states := make([][]byte, len(protos))
	for i, p := range protos {
		states[i] = writeState(t, p)
	}
	return states
}

func writeState(t testing.TB, p sim.Protocol) []byte {
	t.Helper()
	w := sim.Writer(nil, nil)
	if err := w.Protocol(p); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}
