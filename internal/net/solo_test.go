package net

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	gonet "net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// The solo-round suite (DESIGN.md §13): when exactly one process has
// deliveries in a round, it closes the round alone and a peer hears from
// it only when it must. These tests pin that the rule removes frames
// without moving a single delivery — trees, reports and checkpoint bytes
// stay equal to the unit event engine's — and that stops, checkpoints
// and crashes landing inside a solo stretch keep their semantics.

// engineMesh is one live loopback mesh with a DistEngine per process over
// the contiguous partition, reused across a test's runs.
type engineMesh struct {
	trs  []*Transport
	engs []*DistEngine
}

func newEngineMesh(t *testing.T, c *graph.CSR, k int) *engineMesh {
	t.Helper()
	owner := graph.PartitionContiguous(c, k).Owners()
	lns := make([]gonet.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fp := Fingerprint{Procs: k, N: c.N(), HalfEdges: c.HalfEdges()}
	m := &engineMesh{trs: make([]*Transport, k), engs: make([]*DistEngine, k)}
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := NewTransport(lns[i], i, addrs, fp)
			if err := tr.Establish(10 * time.Second); err != nil {
				errs[i] = err
				tr.Close()
				return
			}
			m.trs[i] = tr
			m.engs[i] = &DistEngine{T: tr, Owner: owner}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			m.close()
			t.Fatal(err)
		}
	}
	t.Cleanup(m.close)
	return m
}

func (m *engineMesh) close() {
	for _, tr := range m.trs {
		if tr != nil {
			tr.Close()
		}
	}
}

// run executes one engine step per process concurrently and returns every
// process's error.
func (m *engineMesh) run(t *testing.T, f func(id int, eng *DistEngine) error) []error {
	t.Helper()
	errs := make([]error, len(m.engs))
	var wg sync.WaitGroup
	for i, eng := range m.engs {
		wg.Add(1)
		go func(i int, eng *DistEngine) {
			defer wg.Done()
			errs[i] = f(i, eng)
		}(i, eng)
	}
	waitOrFatal(t, &wg, 60*time.Second, "cluster did not finish")
	return errs
}

// each is run for steps every process must finish with nil or one of the
// allowed sentinels.
func (m *engineMesh) each(t *testing.T, allowed []error, f func(eng *DistEngine) error) {
	t.Helper()
	for i, err := range m.run(t, func(_ int, eng *DistEngine) error { return f(eng) }) {
		if err != nil && !slices.ContainsFunc(allowed, func(a error) bool { return errors.Is(err, a) }) {
			t.Fatalf("process %d: %v", i, err)
		}
	}
}

// unitEngine is the in-process reference every distributed run must equal.
func unitEngine() *sim.EventEngine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }

// floodTree is the pipeline's starting tree, built in-process.
func floodTree(t *testing.T, c *graph.CSR) *tree.Dense {
	t.Helper()
	initial, _, err := spanning.Build(unitEngine(), c, spanning.NewFloodFactory(c, c.Source().Nodes()[0]))
	if err != nil {
		t.Fatal(err)
	}
	return initial
}

// roundActivity replays the improvement on the unit event engine and
// returns, per round, the bitmask of processes that play deliveries in it
// under owner: the solo stretches a DistEngine cluster will see.
func roundActivity(t *testing.T, c *graph.CSR, initial *tree.Dense, mode mdst.Mode, owner []int32) []uint32 {
	t.Helper()
	var act []uint32
	eng := unitEngine()
	eng.Trace = func(e sim.TraceEvent) {
		r := int(e.Time)
		for len(act) <= r {
			act = append(act, 0)
		}
		act[r] |= 1 << owner[c.Index().MustOf(e.To)]
	}
	if _, err := mdst.Run(eng, c, initial, mode, 0); err != nil {
		t.Fatal(err)
	}
	return act
}

// soloStretch finds the first round at or after from that one process
// plays alone, as it did the round before and will the round after — a
// round strictly inside a solo stretch.
func soloStretch(t *testing.T, act []uint32, from int64) (round int64, lone int) {
	t.Helper()
	for r := max(from, 1); r+1 < int64(len(act)); r++ {
		if a := act[r]; bits.OnesCount32(a) == 1 && act[r-1] == a && act[r+1] == a {
			return r, bits.TrailingZeros32(a)
		}
	}
	t.Fatalf("no solo stretch at or after round %d", from)
	return 0, 0
}

// digest renders the deterministic outputs of one run: the tree, the
// report and its sorted per-(kind, round) breakdown.
func digest(tr *tree.Tree, rep *sim.Report) string {
	var b bytes.Buffer
	io.WriteString(&b, tr.String())
	io.WriteString(&b, rep.String())
	kr := make([]string, 0, len(rep.ByKindRound))
	for k, v := range rep.ByKindRound {
		kr = append(kr, fmt.Sprintf("%s=%d", k, v))
	}
	slices.Sort(kr)
	for _, s := range kr {
		fmt.Fprintln(&b, s)
	}
	return b.String()
}

func checkDigest(t *testing.T, what string, got, want *mdst.Result) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil result", what)
	}
	if digest(got.Tree, got.Report) != digest(want.Tree, want.Report) {
		t.Errorf("%s: tree or report diverged from the unit event engine\n got: %s\nwant: %s",
			what, got.Report.String(), want.Report.String())
	}
}

// TestDistSoloFramesPinned pins where the saving comes from on the
// benchmark's deployment workload: gnm(256, 768, 1), Hybrid, two
// processes over the contiguous partition. Every protocol round is still
// counted, but a process now sends only when a peer must hear, so the
// cluster sends 15,334 round frames instead of the every-round exchange's
// 2 × 12,494 = 24,988.
func TestDistSoloFramesPinned(t *testing.T) {
	const rounds, frames, everyRound = 12494, 15334, 24988
	c := graph.Gnm(256, 768, 1).Compile()
	stats := []*NetStats{{}, {}}
	rs, errs := runLoopback(t, c, 2, func(id int) Pipeline {
		return Pipeline{Mode: mdst.Hybrid, CheckpointRound: -1, Stats: stats[id]}
	})
	for id, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v", id, err)
		}
	}
	if rs[0].Result.FinalDegree != 3 {
		t.Errorf("final degree %d, want 3", rs[0].Result.FinalDegree)
	}
	for id, s := range stats {
		if s.Rounds != rounds {
			t.Errorf("process %d counted %d rounds, want %d", id, s.Rounds, rounds)
		}
	}
	if got := stats[0].FramesSent + stats[1].FramesSent; got != frames {
		t.Errorf("cluster sent %d round frames, want %d", got, frames)
	}
	if frames > everyRound*65/100 {
		t.Errorf("pinned %d frames is above 0.65x the every-round exchange's %d", frames, everyRound)
	}
	// The round frames' byte form: payload bytes each process handed to
	// the transport, and the rank/count header share of them.
	wantBytes := [2][2]int64{{615254, 214454}, {621556, 217080}}
	for id, s := range stats {
		if got := [2]int64{s.BytesSent, s.HeaderBytes}; got != wantBytes[id] {
			t.Errorf("process %d sent %d round-frame bytes (%d header), want %d (%d header)",
				id, got[0], got[1], wantBytes[id][0], wantBytes[id][1])
		}
	}
}

// TestDistSoloEquivalence runs the flood→Hybrid pipeline on path, ring and
// gnm graphs at 2, 3 and 4 processes — partitions where solo stretches
// are long (a path's wave crosses one block at a time) and short — and
// requires every process's trees and reports to equal the unit event
// engine's, while the cluster sends fewer frames than the every-round
// exchange would.
func TestDistSoloEquivalence(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"path-64", graph.Path(64)},
		{"ring-64", graph.Ring(64)},
		{"gnm-96", graph.Gnm(96, 288, 1)},
	}
	for _, tg := range graphs {
		t.Run(tg.name, func(t *testing.T) {
			c := tg.g.Compile()
			eng := unitEngine()
			initial, setup, err := spanning.Build(eng, c, spanning.NewFloodFactory(c, c.Source().Nodes()[0]))
			if err != nil {
				t.Fatal(err)
			}
			want, err := mdst.Run(eng, c, initial, mdst.Hybrid, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{2, 3, 4} {
				t.Run(fmt.Sprintf("procs-%d", k), func(t *testing.T) {
					stats := make([]*NetStats, k)
					rs, errs := runLoopback(t, c, k, func(id int) Pipeline {
						stats[id] = &NetStats{}
						return Pipeline{Mode: mdst.Hybrid, CheckpointRound: -1, Stats: stats[id]}
					})
					var frames int64
					for id := 0; id < k; id++ {
						if errs[id] != nil {
							t.Fatalf("process %d: %v", id, errs[id])
						}
						what := fmt.Sprintf("process %d/%d", id, k)
						if digest(rs[id].Initial, rs[id].Setup) != digest(initial.ToTree(), setup) {
							t.Errorf("%s: flood tree or report diverged", what)
						}
						checkDigest(t, what, rs[id].Result, want)
						frames += stats[id].FramesSent
					}
					if every := int64(k*(k-1)) * stats[0].Rounds; frames >= every {
						t.Errorf("cluster sent %d frames, the every-round exchange sends %d", frames, every)
					}
				})
			}
		})
	}
}

// TestDistSoloCheckpointResume freezes the improvement at a round strictly
// inside a solo stretch — a forced full barrier cut into the stretch — and
// requires the file to be byte-identical to the unit event engine's
// checkpoint of that round, and a fresh cluster resumed from it to finish
// equal to the uninterrupted run.
func TestDistSoloCheckpointResume(t *testing.T) {
	c := graph.Gnm(96, 288, 1).Compile()
	initial := floodTree(t, c)
	want, err := mdst.Run(unitEngine(), c, initial, mdst.Hybrid, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("procs-%d", k), func(t *testing.T) {
			owner := graph.PartitionContiguous(c, k).Owners()
			freeze, _ := soloStretch(t, roundActivity(t, c, initial, mdst.Hybrid, owner), 100)

			var wantCk bytes.Buffer
			ref := unitEngine()
			ref.Checkpoint = &sim.CheckpointSpec{Round: freeze, W: &wantCk}
			if _, err := mdst.Run(ref, c, initial, mdst.Hybrid, 0); !errors.Is(err, sim.ErrCheckpointed) {
				t.Fatalf("reference did not freeze: %v", err)
			}

			var ck bytes.Buffer
			m := newEngineMesh(t, c, k)
			m.each(t, []error{sim.ErrCheckpointed}, func(eng *DistEngine) error {
				eng.Checkpoint = &sim.CheckpointSpec{Round: freeze}
				if eng.T.Self() == 0 {
					eng.Checkpoint.W = &ck
				}
				_, err := mdst.Run(eng, c, initial, mdst.Hybrid, 0)
				if err == nil {
					return errors.New("run finished without freezing")
				}
				return err
			})
			if !bytes.Equal(ck.Bytes(), wantCk.Bytes()) {
				t.Fatalf("checkpoint at solo round %d differs from the event engine's (%d vs %d bytes)", freeze, ck.Len(), wantCk.Len())
			}

			resumed := make([]*mdst.Result, k)
			cks := readCheckpoints(t, ck.Bytes(), k)
			m = newEngineMesh(t, c, k)
			m.each(t, nil, func(eng *DistEngine) error {
				var err error
				resumed[eng.T.Self()], err = mdst.Resume(eng, c, initial, mdst.Hybrid, 0, cks[eng.T.Self()])
				return err
			})
			for id, res := range resumed {
				checkDigest(t, fmt.Sprintf("resumed process %d", id), res, want)
			}
		})
	}
}

// TestDistSoloCrashRecovery lands a crash fault strictly inside a solo
// stretch, once on the lone process and once on an idle one. The lone
// process crashes at the armed round; the idle one skips the stretch and
// crashes at the first barrier it reaches after it. Either way the attempt
// fails typed, and the supervised restart converges to the uninterrupted
// results and committed files.
func TestDistSoloCrashRecovery(t *testing.T) {
	const k = 2
	c := graph.Gnm(96, 288, 1).Compile()
	initial := floodTree(t, c)
	owner := graph.PartitionContiguous(c, k).Owners()
	act := roundActivity(t, c, initial, mdst.Single, owner)
	every := cadenceFor(int64(len(act) - 1))
	crash, lone := soloStretch(t, act, every+1)
	refDir := t.TempDir()
	wantInit, wantSetup, wantRes := refPeriodic(t, c, every, refDir)
	for _, victim := range []int{lone, 1 - lone} {
		t.Run(fmt.Sprintf("victim-%d", victim), func(t *testing.T) {
			dir := t.TempDir()
			plan := &FaultPlan{Seed: 1, CrashProc: victim, CrashRound: crash, CrashRun: 2}
			rs, history := superviseChaos(t, c, k, every, dir, plan)
			if len(history) < 2 {
				t.Fatal("fault schedule never fired: the cluster completed on the first attempt")
			}
			var ice *InjectedCrashError
			if !errors.As(history[0][victim], &ice) {
				t.Fatalf("victim %d: got %v, want *InjectedCrashError", victim, history[0][victim])
			}
			if victim == lone && ice.Round != crash {
				t.Errorf("lone victim crashed at round %d, want the armed round %d", ice.Round, crash)
			}
			if victim != lone && ice.Round <= crash {
				t.Errorf("idle victim crashed at round %d, inside the stretch around %d it sleeps through", ice.Round, crash)
			}
			var pd *PeerDownError
			if !errors.As(history[0][1-victim], &pd) {
				t.Errorf("survivor: got %v, want *PeerDownError", history[0][1-victim])
			}
			checkRecovered(t, rs, wantInit, wantSetup, wantRes)
			checkCommittedFiles(t, dir, refDir)
		})
	}
}

// TestDistGracefulStop latches a graceful stop on one process and requires
// every process to return sim.ErrStopped at the same round, with the final
// commit byte-identical to the unit event engine's checkpoint of that
// round and resuming to the uninterrupted tree and report. The stop is
// latched inside a stretch where every process is active (the stop rides
// the next all-to-all exchange), on the lone process of a solo stretch
// (its stop flag forces a broadcast at once), and on a process idle in
// that stretch (its request waits for the next frame it sends).
func TestDistGracefulStop(t *testing.T) {
	c := graph.Gnm(96, 288, 1).Compile()
	initial := floodTree(t, c)
	want, err := mdst.Run(unitEngine(), c, initial, mdst.Hybrid, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A freeze round no run reaches arms the commit protocol without ever
	// forcing a barrier.
	const never = int64(1) << 40
	for _, k := range []int{2, 3} {
		t.Run(fmt.Sprintf("procs-%d", k), func(t *testing.T) {
			owner := graph.PartitionContiguous(c, k).Owners()
			act := roundActivity(t, c, initial, mdst.Hybrid, owner)
			all := uint32(1)<<k - 1
			busy := int64(slices.Index(act[100:], all)) + 100
			if busy < 100 {
				t.Fatal("no round after 100 where every process is active")
			}
			solo, lone := soloStretch(t, act, 100)
			idle := (lone + 1) % k
			// An idle process next sends at the first round after the stretch
			// with two or more active processes, or that it plays alone.
			idleStop := solo
			for idleStop < int64(len(act)) && bits.OnesCount32(act[idleStop]) < 2 && act[idleStop] != 1<<idle {
				idleStop++
			}
			if idleStop >= int64(len(act))-1 {
				t.Fatal("the run ends before the idle process sends again")
			}
			cases := []struct {
				name      string
				latch     int   // the process whose Stop fires
				round     int64 // the round its Stop fires at
				stopRound int64 // the round the cluster stops at
			}{
				{"all-active", 1, busy, busy},
				{"solo-lone", lone, solo, solo},
				{"solo-idle", idle, solo, idleStop},
			}
			for _, tc := range cases {
				t.Run(tc.name, func(t *testing.T) {
					var wantCk bytes.Buffer
					ref := unitEngine()
					ref.Checkpoint = &sim.CheckpointSpec{Round: tc.stopRound, W: &wantCk}
					if _, err := mdst.Run(ref, c, initial, mdst.Hybrid, 0); !errors.Is(err, sim.ErrCheckpointed) {
						t.Fatalf("reference did not freeze: %v", err)
					}

					var ck bytes.Buffer
					// passed is set once a process that plays round tc.round
					// has closed it; the latching process stops from then on.
					// A process idle in the stretch polls only when it next
					// sends, which the lone process's frames order after that.
					var passed atomic.Bool
					m := newEngineMesh(t, c, k)
					stats := make([]*NetStats, k)
					errs := m.run(t, func(id int, eng *DistEngine) error {
						stats[id] = &NetStats{}
						eng.Stats = stats[id]
						eng.Checkpoint = &sim.CheckpointSpec{Round: never}
						if id == 0 {
							eng.Checkpoint.W = &ck
						}
						plays := act[tc.round]&(1<<id) != 0
						eng.Stop = func() bool {
							if plays && stats[id].Rounds >= tc.round {
								passed.Store(true)
							}
							return id == tc.latch && passed.Load()
						}
						_, err := mdst.Run(eng, c, initial, mdst.Hybrid, 0)
						return err
					})
					for id, err := range errs {
						if !errors.Is(err, sim.ErrStopped) {
							t.Fatalf("process %d: got %v, want sim.ErrStopped", id, err)
						}
						// Rounds counts the Init barrier plus every round closed.
						if got := stats[id].Rounds - 1; got != tc.stopRound {
							t.Errorf("process %d stopped at round %d, want %d", id, got, tc.stopRound)
						}
					}
					if !bytes.Equal(ck.Bytes(), wantCk.Bytes()) {
						t.Fatalf("stop commit differs from the event engine's checkpoint of round %d (%d vs %d bytes)", tc.stopRound, ck.Len(), wantCk.Len())
					}

					cks := readCheckpoints(t, ck.Bytes(), k)
					resumed := make([]*mdst.Result, k)
					m = newEngineMesh(t, c, k)
					m.each(t, nil, func(eng *DistEngine) error {
						var err error
						resumed[eng.T.Self()], err = mdst.Resume(eng, c, initial, mdst.Hybrid, 0, cks[eng.T.Self()])
						return err
					})
					for id, res := range resumed {
						if res.Tree.String() != want.Tree.String() || res.Report.String() != want.Report.String() {
							t.Errorf("process %d: resumed run diverged from the uninterrupted one", id)
						}
					}
				})
			}
		})
	}
}
