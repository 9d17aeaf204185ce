package net

import (
	"reflect"
	"testing"
	"time"
)

// FaultPlan contract: every decision is a pure function of (seed, sender,
// receiver, frame index) — rerunning a plan replays the identical schedule,
// which is what makes a chaos failure reproducible from its flag string.

func TestFaultPlanDeterminism(t *testing.T) {
	mk := func(seed uint64) *FaultPlan {
		return &FaultPlan{Seed: seed, Drop: 0.1, Dup: 0.1, Trunc: 0.05, Delay: 0.25, DelayMax: time.Millisecond}
	}
	a, b, other := mk(42), mk(42), mk(43)
	counts := map[faultAction]int{}
	var diverged int
	for from := 0; from < 3; from++ {
		for to := 0; to < 3; to++ {
			if from == to {
				continue
			}
			for n := int64(1); n <= 300; n++ {
				act := a.frameAction(from, to, n)
				if act != b.frameAction(from, to, n) {
					t.Fatalf("same plan diverged at (%d,%d,%d)", from, to, n)
				}
				if act != other.frameAction(from, to, n) {
					diverged++
				}
				counts[act]++
				if d := a.delayFor(from, to, n); d != b.delayFor(from, to, n) || d < 0 || d >= time.Millisecond {
					t.Fatalf("delay at (%d,%d,%d): %v", from, to, n, d)
				}
			}
		}
	}
	if diverged == 0 {
		t.Fatal("different seeds produced identical schedules")
	}
	for _, act := range []faultAction{faultNone, faultDrop, faultDup, faultTrunc, faultDelay} {
		if counts[act] == 0 {
			t.Errorf("action %d never drawn across 1800 frames", act)
		}
	}
	// The armed probabilities sum to 0.5: roughly half the frames fault.
	faulted := 1800 - counts[faultNone]
	if faulted < 600 || faulted > 1200 {
		t.Errorf("fault rate wildly off the configured 0.5: %d/1800", faulted)
	}
}

func TestFaultPlanKillAndCrash(t *testing.T) {
	p := &FaultPlan{KillFrom: 1, KillTo: 0, KillAt: 7, CrashProc: 2, CrashRound: 5, CrashRun: 2, RefuseDials: 2}
	if p.frameAction(1, 0, 7) != faultKill {
		t.Error("armed kill did not fire at its frame")
	}
	for _, n := range []int64{6, 8} {
		if p.frameAction(1, 0, n) == faultKill {
			t.Errorf("kill fired at frame %d", n)
		}
	}
	if p.frameAction(0, 1, 7) == faultKill {
		t.Error("kill fired on the reverse direction")
	}
	cases := []struct {
		self       int
		run, round int64
		want       bool
	}{
		{2, 2, 5, true}, {2, 1, 5, false}, {2, 2, 4, false}, {1, 2, 5, false},
		// A process that sleeps through round 5 in a peer's solo stretch
		// crashes at the first barrier it reaches after it.
		{2, 2, 9, true},
	}
	for _, tc := range cases {
		if got := p.crashAt(tc.self, tc.run, tc.round); got != tc.want {
			t.Errorf("crashAt(%d,%d,%d) = %v, want %v", tc.self, tc.run, tc.round, got, tc.want)
		}
	}
	anyRun := &FaultPlan{CrashProc: 0, CrashRound: 1}
	if !anyRun.crashAt(0, 1, 1) || !anyRun.crashAt(0, 2, 1) {
		t.Error("CrashRun=0 should match any engine run")
	}
	if !p.refuseDial(0) || !p.refuseDial(1) || p.refuseDial(2) {
		t.Error("refuseDial should fail exactly the first RefuseDials attempts")
	}
}

func TestParseFaultPlan(t *testing.T) {
	got, err := ParseFaultPlan(" seed=7, drop=0.02 ,dup=0.01,trunc=0.005,delay=0.1,delaymax=2ms,refuse=3,kill=1>0@40,crash=2@5,crashrun=1")
	if err != nil {
		t.Fatal(err)
	}
	want := &FaultPlan{Seed: 7, Drop: 0.02, Dup: 0.01, Trunc: 0.005, Delay: 0.1,
		DelayMax: 2 * time.Millisecond, RefuseDials: 3,
		KillFrom: 1, KillTo: 0, KillAt: 40,
		CrashProc: 2, CrashRound: 5, CrashRun: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parsed plan diverged:\n got: %+v\nwant: %+v", got, want)
	}

	// crashrun defaults to the pipeline's improvement run.
	got, err = ParseFaultPlan("crash=1@3")
	if err != nil || got.CrashProc != 1 || got.CrashRound != 3 || got.CrashRun != 2 {
		t.Fatalf("crash default: %+v, %v", got, err)
	}

	// An empty plan is explicitly no plan.
	if got, err := ParseFaultPlan("  "); got != nil || err != nil {
		t.Fatalf("empty plan: %+v, %v", got, err)
	}

	for _, bad := range []string{
		"nonsense",
		"drop=1.5",
		"drop=-0.1",
		"seed=abc",
		"kill=1@40",
		"kill=1>x@40",
		"crash=5",
		"crash=a@b",
		"frob=1",
		"delaymax=fast",
	} {
		if _, err := ParseFaultPlan(bad); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
