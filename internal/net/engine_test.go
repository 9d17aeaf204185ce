package net

import (
	"bytes"
	"errors"
	"fmt"
	gonet "net"
	"reflect"
	"sync"
	"testing"
	"time"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// The differential loopback suite: K mdstd-shaped processes — real TCP
// over 127.0.0.1, one goroutine per process — must produce trees, reports
// and checkpoint files bit-identical to the in-process engines.

// runLoopback executes one distributed pipeline with k processes over
// loopback TCP and returns every process's result. pipe builds each
// process's Pipeline (so tests can hand a CheckpointW or Resume to
// individual processes).
func runLoopback(t *testing.T, c *graph.CSR, k int, pipe func(id int) Pipeline) ([]*PipelineResult, []error) {
	t.Helper()
	part, err := graph.PartitionNamed(c, "contiguous", k)
	if err != nil {
		t.Fatal(err)
	}
	owner := part.Owners()
	lns := make([]gonet.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fp := Fingerprint{Procs: k, N: c.N(), HalfEdges: c.HalfEdges()}
	results := make([]*PipelineResult, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := NewTransport(lns[i], i, addrs, fp)
			defer tr.Close()
			if err := tr.Establish(10 * time.Second); err != nil {
				errs[i] = fmt.Errorf("establish: %w", err)
				return
			}
			results[i], errs[i] = RunPipeline(tr, c, owner, pipe(i))
		}(i)
	}
	waitOrFatal(t, &wg, 60*time.Second, "cluster did not finish")
	return results, errs
}

func waitOrFatal(t *testing.T, wg *sync.WaitGroup, d time.Duration, msg string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatal(msg)
	}
}

// runInProcess is the reference: the same pipeline on an in-process
// engine.
func runInProcess(t *testing.T, c *graph.CSR, eng sim.Engine) (*tree.Tree, *sim.Report, *mdst.Result) {
	t.Helper()
	root := c.Source().Nodes()[0]
	initial, setup, err := spanning.Build(eng, c, spanning.NewFloodFactory(c, root))
	if err != nil {
		t.Fatal(err)
	}
	res, err := mdst.Run(eng, c, initial, mdst.Single, 0)
	if err != nil {
		t.Fatal(err)
	}
	return initial.ToTree(), setup, res
}

// normalizeReport strips the field that legitimately differs between
// runtime configurations of the same execution: wall-clock time.
func normalizeReport(r *sim.Report) *sim.Report {
	cp := *r
	cp.Wall = 0
	return &cp
}

func checkReport(t *testing.T, what string, got, want *sim.Report) {
	t.Helper()
	if got == nil || want == nil {
		t.Fatalf("%s: nil report (got %v, want %v)", what, got, want)
	}
	if !reflect.DeepEqual(normalizeReport(got), normalizeReport(want)) {
		t.Errorf("%s: report diverged\n got: %+v\nwant: %+v", what, normalizeReport(got), normalizeReport(want))
	}
}

func checkTree(t *testing.T, what string, got, want *tree.Tree) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: tree diverged (got root %v degree %v, want root %v degree %v)",
			what, got.Root, firstOf(got.MaxDegree()), want.Root, firstOf(want.MaxDegree()))
	}
}

func firstOf(d int, _ []graph.NodeID) int { return d }

func checkResult(t *testing.T, what string, got, want *mdst.Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil result", what)
	}
	checkTree(t, what+" final tree", got.Tree, want.Tree)
	checkReport(t, what+" improvement report", got.Report, want.Report)
	if got.Rounds != want.Rounds || got.Swaps != want.Swaps ||
		got.InitialDegree != want.InitialDegree || got.FinalDegree != want.FinalDegree {
		t.Errorf("%s: counters diverged: got rounds=%d swaps=%d k0=%d k*=%d, want rounds=%d swaps=%d k0=%d k*=%d",
			what, got.Rounds, got.Swaps, got.InitialDegree, got.FinalDegree,
			want.Rounds, want.Swaps, want.InitialDegree, want.FinalDegree)
	}
}

func testGraphs() []struct {
	name string
	g    *graph.Graph
} {
	return []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm-96", graph.Gnm(96, 288, 1)},
		{"grid-256", graph.Grid(16, 16)},
	}
}

// TestMdstdLoopbackEquivalence pins the acceptance bar: for gnm-96 and
// grid-256, a 1-, 2- and 4-process loopback cluster produces the tree and
// Report counters bit-identical to the unit event engine, and every
// process of a cluster finishes holding the identical result.
func TestMdstdLoopbackEquivalence(t *testing.T) {
	for _, tg := range testGraphs() {
		t.Run(tg.name, func(t *testing.T) {
			c := tg.g.Compile()
			wantInit, wantSetup, wantRes := runInProcess(t, c, &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true})
			for _, k := range []int{1, 2, 4} {
				t.Run(fmt.Sprintf("procs-%d", k), func(t *testing.T) {
					rs, errs := runLoopback(t, c, k, func(int) Pipeline { return Pipeline{CheckpointRound: -1} })
					for id := 0; id < k; id++ {
						if errs[id] != nil {
							t.Fatalf("process %d: %v", id, errs[id])
						}
						what := fmt.Sprintf("process %d/%d", id, k)
						checkTree(t, what+" initial", rs[id].Initial, wantInit)
						checkReport(t, what+" setup", rs[id].Setup, wantSetup)
						checkResult(t, what, rs[id].Result, wantRes)
					}
				})
			}
		})
	}
}

// readCheckpoints parses one checkpoint file once per process — each mdstd
// process reads the file itself, nothing is redistributed — so the
// per-process Checkpoint values must not be shared across goroutines.
func readCheckpoints(t *testing.T, file []byte, k int) []*sim.Checkpoint {
	t.Helper()
	cks := make([]*sim.Checkpoint, k)
	for i := range cks {
		ck, err := sim.ReadCheckpoint(bytes.NewReader(file))
		if err != nil {
			t.Fatalf("re-reading checkpoint: %v", err)
		}
		cks[i] = ck
	}
	return cks
}

// TestMdstdCheckpointKillRestart is the fault-injection path: freeze a
// 2-process improvement run at a checkpoint barrier (every process exits
// once the coordinator acknowledges the commit — the controlled crash
// point), verify the file is byte-identical to the in-process engines'
// checkpoint of the same run, then restart a fresh cluster from the file
// and require the resumed run to be bit-equal to one that was never
// interrupted.
func TestMdstdCheckpointKillRestart(t *testing.T) {
	const freezeRound = 3
	c := graph.Gnm(96, 288, 1).Compile()
	_, _, wantRes := runInProcess(t, c, &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true})

	// In-process checkpoint bytes of the same run.
	wantCk := inProcessCheckpoint(t, c, freezeRound)

	// Distributed run up to the armed barrier; process 0 holds the file.
	var ckFile bytes.Buffer
	rs, errs := runLoopback(t, c, 2, func(id int) Pipeline {
		p := Pipeline{CheckpointRound: freezeRound}
		if id == 0 {
			p.CheckpointW = &ckFile
		}
		return p
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("checkpointing process %d: %v", id, err)
		}
		if !rs[id].Checkpointed {
			t.Fatalf("process %d did not freeze at the barrier", id)
		}
	}
	if !bytes.Equal(ckFile.Bytes(), wantCk) {
		t.Fatalf("distributed checkpoint file differs from the in-process file (%d vs %d bytes)", ckFile.Len(), len(wantCk))
	}

	// Both processes are now dead (transports torn down). Restart a fresh
	// cluster from the durable file.
	cks := readCheckpoints(t, ckFile.Bytes(), 2)
	rs, errs = runLoopback(t, c, 2, func(id int) Pipeline {
		return Pipeline{CheckpointRound: -1, Resume: cks[id]}
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("resumed process %d: %v", id, err)
		}
	}
	checkResult(t, "resumed process 0", rs[0].Result, wantRes)
	checkResult(t, "resumed process 1", rs[1].Result, wantRes)
}

func inProcessCheckpoint(t *testing.T, c *graph.CSR, round int64) []byte {
	t.Helper()
	root := c.Source().Nodes()[0]
	initial, _, err := spanning.Build(&sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}, c, spanning.NewFloodFactory(c, root))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	armed := &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Checkpoint: &sim.CheckpointSpec{Round: round, W: &buf}}
	if _, err := mdst.Run(armed, c, initial, mdst.Single, 0); !errors.Is(err, sim.ErrCheckpointed) {
		t.Fatalf("in-process run did not freeze: %v", err)
	}
	return buf.Bytes()
}

// TestMdstdPeerCrashDetection kills one process of a 2-process cluster
// right after the mesh is up — an abrupt connection teardown, not a clean
// protocol exit — and requires the surviving process's pipeline to fail
// with an error instead of hanging or panicking.
func TestMdstdPeerCrashDetection(t *testing.T) {
	c := graph.Gnm(96, 288, 1).Compile()
	part, err := graph.PartitionNamed(c, "contiguous", 2)
	if err != nil {
		t.Fatal(err)
	}
	owner := part.Owners()
	lns := make([]gonet.Listener, 2)
	addrs := make([]string, 2)
	for i := range lns {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fp := Fingerprint{Procs: 2, N: c.N(), HalfEdges: c.HalfEdges()}
	var wg sync.WaitGroup
	var survivorErr error
	wg.Add(2)
	go func() { // the victim: establish, then die without a word
		defer wg.Done()
		tr := NewTransport(lns[1], 1, addrs, fp)
		if err := tr.Establish(10 * time.Second); err != nil {
			t.Errorf("victim establish: %v", err)
			return
		}
		tr.Close()
	}()
	go func() { // the survivor: run the full pipeline into the crash
		defer wg.Done()
		tr := NewTransport(lns[0], 0, addrs, fp)
		defer tr.Close()
		if err := tr.Establish(10 * time.Second); err != nil {
			survivorErr = err
			return
		}
		_, survivorErr = RunPipeline(tr, c, owner, Pipeline{CheckpointRound: -1})
	}()
	waitOrFatal(t, &wg, 30*time.Second, "survivor hung on the dead peer")
	if survivorErr == nil {
		t.Fatal("survivor completed a 2-process run without its peer")
	}
}
