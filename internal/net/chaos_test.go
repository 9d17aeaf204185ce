package net

import (
	"bytes"
	"errors"
	"fmt"
	gonet "net"
	"os"
	"path/filepath"
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

// The chaos harness (DESIGN.md §11): seeded fault schedules against real
// loopback clusters, supervised exactly like mdstd -launch -restarts — the
// first attempt runs with the fault plan armed, every retry drops the
// faults and resumes from the latest committed recovery point. The
// acceptance bar: any schedule that leaves a committed checkpoint must
// recover to results and checkpoint files bitwise-identical to an
// uninterrupted EventEngine run; a crash before any commit must surface as
// typed errors (*InjectedCrashError on the victim, *PeerDownError on a
// survivor) and never as a hang — every attempt is bounded by waitOrFatal.

// chaosCluster runs one supervised attempt: k processes over loopback with
// heartbeats and a tight liveness window, the fault plan armed on every
// transport, periodic checkpointing into dir, optionally resuming from a
// committed checkpoint file's bytes.
func chaosCluster(t *testing.T, c *graph.CSR, k int, every int64, dir string, faults *FaultPlan, resumeFile []byte) ([]*PipelineResult, []error) {
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
	var cks []*sim.Checkpoint
	if resumeFile != nil {
		cks = readCheckpoints(t, resumeFile, k)
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
			tr.Heartbeat = 20 * time.Millisecond
			tr.Liveness = 800 * time.Millisecond
			tr.Faults = faults
			defer tr.Close()
			if err := tr.Establish(10 * time.Second); err != nil {
				errs[i] = fmt.Errorf("establish: %w", err)
				return
			}
			p := Pipeline{CheckpointRound: -1, CheckpointEvery: every}
			if i == 0 {
				p.CheckpointSink = &sim.CheckpointDir{Dir: dir}
			}
			if cks != nil {
				p.Resume = cks[i]
			}
			results[i], errs[i] = RunPipeline(tr, c, owner, p)
		}(i)
	}
	waitOrFatal(t, &wg, 60*time.Second, "chaos cluster hung — a failure must surface as an error, never a stall")
	return results, errs
}

// superviseChaos mirrors the mdstd supervisor in-process. Returns the
// first fully successful attempt's results plus every attempt's error
// vector (attempt 0 first).
func superviseChaos(t *testing.T, c *graph.CSR, k int, every int64, dir string, faults *FaultPlan) ([]*PipelineResult, [][]error) {
	t.Helper()
	var history [][]error
	for attempt := 0; attempt < 4; attempt++ {
		plan := faults
		var resume []byte
		if attempt > 0 {
			// A deterministic plan would re-fire identically; the supervisor
			// drops it after the first attempt, just like mdstd -launch.
			plan = nil
			d := &sim.CheckpointDir{Dir: dir}
			path, _, ok, err := d.Latest()
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				if resume, err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
		}
		rs, errs := chaosCluster(t, c, k, every, dir, plan, resume)
		history = append(history, errs)
		ok := true
		for _, err := range errs {
			if err != nil {
				ok = false
			}
		}
		if ok {
			return rs, history
		}
	}
	t.Fatalf("cluster did not recover within the restart budget; last errors: %v", history[len(history)-1])
	return nil, nil
}

// refPeriodic is the uninterrupted reference: the unit event engine running
// the same pipeline with the same periodic cadence committing into refDir.
func refPeriodic(t *testing.T, c *graph.CSR, every int64, refDir string) (*tree.Tree, *sim.Report, *mdst.Result) {
	t.Helper()
	root := c.Source().Nodes()[0]
	base := &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}
	initial, setup, err := spanning.Build(base, c, spanning.NewFloodFactory(c, root))
	if err != nil {
		t.Fatal(err)
	}
	armed := &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true,
		Checkpoint: &sim.CheckpointSpec{Every: every, Sink: &sim.CheckpointDir{Dir: refDir}}}
	res, err := mdst.Run(armed, c, initial, mdst.Single, 0)
	if err != nil {
		t.Fatal(err)
	}
	return initial.ToTree(), setup, res
}

// checkCommittedFiles requires the cluster's checkpoint directory to hold
// exactly the reference cadence rounds, each file byte-identical to the
// EventEngine's commit of the same barrier.
func checkCommittedFiles(t *testing.T, dir, refDir string) {
	t.Helper()
	got, err := (&sim.CheckpointDir{Dir: dir}).Rounds()
	if err != nil {
		t.Fatal(err)
	}
	want, err := (&sim.CheckpointDir{Dir: refDir}).Rounds()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("committed rounds diverged: cluster %v, reference %v", got, want)
	}
	for _, r := range got {
		name := sim.CheckpointFileName(r)
		a, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("round %d: committed file differs from the reference (%d vs %d bytes)", r, len(a), len(b))
		}
	}
}

// cadenceFor picks a checkpoint cadence giving the improvement run about
// five commits — enough cadence barriers to crash between, without the
// test spending its whole budget on fsynced commits. Barrier rounds are
// unit-delay rounds, so the run's length is its causal depth (thousands
// for gnm-96), not the protocol's own round counter.
func cadenceFor(depth int64) int64 {
	every := depth / 5
	if every < 2 {
		every = 2
	}
	return every
}

// checkRecovered asserts every process of the recovered cluster holds the
// reference pipeline outcome.
func checkRecovered(t *testing.T, rs []*PipelineResult, wantInit *tree.Tree, wantSetup *sim.Report, wantRes *mdst.Result) {
	t.Helper()
	for id, r := range rs {
		what := fmt.Sprintf("recovered process %d", id)
		checkTree(t, what+" initial", r.Initial, wantInit)
		checkReport(t, what+" setup", r.Setup, wantSetup)
		checkResult(t, what, r.Result, wantRes)
	}
}

// TestChaosCrashRecoveryEquivalence is the headline gate: a process is
// crashed mid-improvement (after at least one committed recovery point),
// the attempt fails with typed errors, and the supervised restart — resumed
// from the latest commit, faults disarmed — converges to results and
// checkpoint files bitwise-identical to an uninterrupted run. Both test
// graphs, 2- and 4-process clusters, victims at both ends of the id range.
func TestChaosCrashRecoveryEquivalence(t *testing.T) {
	for _, tg := range testGraphs() {
		t.Run(tg.name, func(t *testing.T) {
			c := tg.g.Compile()
			_, _, plainRes := runInProcess(t, c, &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true})
			every := cadenceFor(plainRes.Report.CausalDepth)
			// Crash just past the second cadence barrier: at least one commit
			// exists to recover from, and the run is still far from done.
			crashRound := 2*every + 1
			if crashRound >= plainRes.Report.CausalDepth-every {
				t.Skipf("improvement spans only %d barrier rounds; crash schedule cannot fire", plainRes.Report.CausalDepth)
			}
			refDir := t.TempDir()
			wantInit, wantSetup, wantRes := refPeriodic(t, c, every, refDir)
			for _, k := range []int{2, 4} {
				t.Run(fmt.Sprintf("procs-%d", k), func(t *testing.T) {
					for _, victim := range []int{0, k - 1} {
						t.Run(fmt.Sprintf("victim-%d", victim), func(t *testing.T) {
							dir := t.TempDir()
							plan := &FaultPlan{Seed: 1, CrashProc: victim, CrashRound: crashRound, CrashRun: 2}
							rs, history := superviseChaos(t, c, k, every, dir, plan)
							if len(history) < 2 {
								t.Fatal("fault schedule never fired: the cluster completed on the first attempt")
							}
							first := history[0]
							var ice *InjectedCrashError
							if !errors.As(first[victim], &ice) {
								t.Errorf("victim %d: got %v, want *InjectedCrashError", victim, first[victim])
							}
							var sawPeerDown bool
							for id, err := range first {
								var pd *PeerDownError
								if id != victim && errors.As(err, &pd) {
									sawPeerDown = true
								}
							}
							if !sawPeerDown {
								t.Errorf("no survivor surfaced a *PeerDownError: %v", first)
							}
							checkRecovered(t, rs, wantInit, wantSetup, wantRes)
							checkCommittedFiles(t, dir, refDir)
						})
					}
				})
			}
		})
	}
}

// TestChaosCrashBeforeAnyCommit crashes a process at barrier 1 with a
// cadence (64) no run reaches: nothing is ever committed, the survivor
// fails typed instead of hanging, and the supervisor restarts the cluster
// from scratch to the uninterrupted result.
func TestChaosCrashBeforeAnyCommit(t *testing.T) {
	c := graph.Gnm(96, 288, 1).Compile()
	refDir := t.TempDir()
	wantInit, wantSetup, wantRes := refPeriodic(t, c, 64, refDir)
	dir := t.TempDir()
	plan := &FaultPlan{Seed: 5, CrashProc: 1, CrashRound: 1, CrashRun: 2}
	rs, history := superviseChaos(t, c, 2, 64, dir, plan)
	if len(history) < 2 {
		t.Fatal("fault schedule never fired")
	}
	first := history[0]
	var ice *InjectedCrashError
	if !errors.As(first[1], &ice) {
		t.Errorf("victim: got %v, want *InjectedCrashError", first[1])
	}
	var pd *PeerDownError
	if !errors.As(first[0], &pd) {
		t.Errorf("survivor: got %v, want *PeerDownError", first[0])
	}
	if _, _, ok, err := (&sim.CheckpointDir{Dir: dir}).Latest(); err != nil {
		t.Fatal(err)
	} else if len(history) >= 2 && ok && history[1] == nil {
		t.Error("a checkpoint was committed before the crash at barrier 1")
	}
	checkRecovered(t, rs, wantInit, wantSetup, wantRes)
	checkCommittedFiles(t, dir, refDir)
}

// TestChaosConnectionKill severs one direction of a connection at a fixed
// data frame. Wherever the kill lands — flood or improvement, before or
// after a commit — the supervised restart must converge to the reference.
func TestChaosConnectionKill(t *testing.T) {
	c := graph.Gnm(96, 288, 1).Compile()
	_, _, plainRes := runInProcess(t, c, &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true})
	every := cadenceFor(plainRes.Report.CausalDepth)
	refDir := t.TempDir()
	wantInit, wantSetup, wantRes := refPeriodic(t, c, every, refDir)
	dir := t.TempDir()
	plan := &FaultPlan{Seed: 3, KillFrom: 1, KillTo: 0, KillAt: 10}
	rs, history := superviseChaos(t, c, 2, every, dir, plan)
	if len(history) >= 2 {
		var sawPeerDown bool
		for _, err := range history[0] {
			var pd *PeerDownError
			if errors.As(err, &pd) {
				sawPeerDown = true
			}
		}
		if !sawPeerDown {
			t.Errorf("killed connection surfaced no *PeerDownError: %v", history[0])
		}
	}
	checkRecovered(t, rs, wantInit, wantSetup, wantRes)
	checkCommittedFiles(t, dir, refDir)
}

// TestChaosLossyLink runs a seeded 2% frame-drop schedule. Lost frames can
// never corrupt a run — the receiver either gets every frame or starves,
// and starvation is converted into *PeerDownError by the claim-carrying
// heartbeats — so the supervised cluster must end bit-equal to the
// reference no matter which frames the seed condemns.
func TestChaosLossyLink(t *testing.T) {
	c := graph.Gnm(96, 288, 1).Compile()
	_, _, plainRes := runInProcess(t, c, &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true})
	every := cadenceFor(plainRes.Report.CausalDepth)
	refDir := t.TempDir()
	wantInit, wantSetup, wantRes := refPeriodic(t, c, every, refDir)
	dir := t.TempDir()
	plan := &FaultPlan{Seed: 7, Drop: 0.02}
	rs, _ := superviseChaos(t, c, 2, every, dir, plan)
	checkRecovered(t, rs, wantInit, wantSetup, wantRes)
	checkCommittedFiles(t, dir, refDir)
}
