package net

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Deterministic fault injection (DESIGN.md §11). A FaultPlan is a pure
// function of its Seed: every per-frame decision hashes (seed, sender,
// receiver, frame index) through splitmix64, so two runs with the same
// plan inject exactly the same faults regardless of scheduling. Plans are
// off by default (nil on the Transport) and the injection hooks sit behind
// a single nil check on the send path, so the benched wire paths pay
// nothing.
//
// Hello and heartbeat frames are exempt: the plan models a lossy network
// under an established mesh, and the liveness machinery must stay
// observable for the detector tests to mean anything. Frame indices count
// from 1 per directed peer pair.

// FaultPlan is a seeded schedule of injected transport faults.
type FaultPlan struct {
	// Seed drives every probabilistic decision.
	Seed uint64

	// Per-frame probabilities, cumulative order drop → dup → trunc → delay.
	Drop  float64 // frame silently not written (sender still claims it)
	Dup   float64 // frame written twice
	Trunc float64 // frame cut mid-payload and the connection killed
	Delay float64 // frame written after a short deterministic stall

	// DelayMax bounds an injected stall (default 5ms when Delay > 0).
	DelayMax time.Duration

	// Kill severs the KillFrom→KillTo connection at data frame KillAt
	// (1-based; 0 disarms).
	KillFrom, KillTo int
	KillAt           int64

	// RefuseDials fails this side's first RefuseDials dial attempts per
	// peer before letting TCP through, exercising the retry/backoff path.
	RefuseDials int

	// Crash makes process CrashProc abandon the run at the first barrier
	// it reaches at or after CrashRound (0 disarms) of engine run CrashRun
	// (the pipeline's improvement run is 2; 0 means any run), returning
	// *InjectedCrashError. The distributed engine honours it; the
	// transport only carries it.
	CrashProc  int
	CrashRound int64
	CrashRun   int64
}

type faultAction int

const (
	faultNone faultAction = iota
	faultDrop
	faultDup
	faultTrunc
	faultDelay
	faultKill
)

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash mixes one directed frame's coordinates with the seed.
func (f *FaultPlan) hash(from, to int, n int64) uint64 {
	return splitmix64(f.Seed ^ splitmix64(uint64(from)<<32|uint64(uint32(to))) ^ splitmix64(uint64(n)))
}

// frameAction decides the fate of data frame n on the from→to connection.
func (f *FaultPlan) frameAction(from, to int, n int64) faultAction {
	if f.KillAt > 0 && from == f.KillFrom && to == f.KillTo && n == f.KillAt {
		return faultKill
	}
	p := f.Drop + f.Dup + f.Trunc + f.Delay
	if p <= 0 {
		return faultNone
	}
	// 53 uniform bits, the float64 mantissa.
	u := float64(f.hash(from, to, n)>>11) / float64(1<<53)
	switch {
	case u < f.Drop:
		return faultDrop
	case u < f.Drop+f.Dup:
		return faultDup
	case u < f.Drop+f.Dup+f.Trunc:
		return faultTrunc
	case u < p:
		return faultDelay
	}
	return faultNone
}

// delayFor is the deterministic stall of a delayed frame.
func (f *FaultPlan) delayFor(from, to int, n int64) time.Duration {
	max := f.DelayMax
	if max <= 0 {
		max = 5 * time.Millisecond
	}
	return time.Duration(f.hash(from, to, ^n) % uint64(max))
}

// refuseDial reports whether dial attempt i (0-based) should be refused.
func (f *FaultPlan) refuseDial(attempt int) bool { return attempt < f.RefuseDials }

// crashAt reports whether process self must crash at this barrier: the
// first one it reaches at or after CrashRound. A process idle in a peer's
// solo stretch skips the stretch's rounds, so its crash fires at the
// barrier that wakes it.
func (f *FaultPlan) crashAt(self int, run, round int64) bool {
	return f.CrashRound > 0 && self == f.CrashProc && round >= f.CrashRound &&
		(f.CrashRun == 0 || run == f.CrashRun)
}

// ParseFaultPlan parses the -faults flag syntax: comma-separated
// key=value pairs, e.g.
//
//	seed=7,crash=1@3,drop=0.02,dup=0.01,trunc=0.01,delay=0.01,kill=0>1@40,refuse=2
//
// Keys: seed (uint), drop/dup/trunc/delay (probability), delaymax
// (duration), kill (from>to@frame), refuse (count), crash (proc@round),
// crashrun (engine run, default 2 — the pipeline's improvement run).
// An empty string yields a nil plan.
func ParseFaultPlan(s string) (*FaultPlan, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, nil
	}
	f := &FaultPlan{CrashRun: 2}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("net: fault plan: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			f.Seed, err = strconv.ParseUint(v, 10, 64)
		case "drop":
			f.Drop, err = parseProb(v)
		case "dup":
			f.Dup, err = parseProb(v)
		case "trunc":
			f.Trunc, err = parseProb(v)
		case "delay":
			f.Delay, err = parseProb(v)
		case "delaymax":
			f.DelayMax, err = time.ParseDuration(v)
		case "refuse":
			f.RefuseDials, err = strconv.Atoi(v)
		case "kill":
			pair, at, ok := strings.Cut(v, "@")
			from, to, ok2 := strings.Cut(pair, ">")
			if !ok || !ok2 {
				return nil, fmt.Errorf("net: fault plan: kill wants from>to@frame, got %q", v)
			}
			if f.KillFrom, err = strconv.Atoi(from); err == nil {
				if f.KillTo, err = strconv.Atoi(to); err == nil {
					f.KillAt, err = strconv.ParseInt(at, 10, 64)
				}
			}
		case "crash":
			proc, round, ok := strings.Cut(v, "@")
			if !ok {
				return nil, fmt.Errorf("net: fault plan: crash wants proc@round, got %q", v)
			}
			if f.CrashProc, err = strconv.Atoi(proc); err == nil {
				f.CrashRound, err = strconv.ParseInt(round, 10, 64)
			}
		case "crashrun":
			f.CrashRun, err = strconv.ParseInt(v, 10, 64)
		default:
			return nil, fmt.Errorf("net: fault plan: unknown key %q", k)
		}
		if err != nil {
			return nil, fmt.Errorf("net: fault plan: %s=%s: %v", k, v, err)
		}
	}
	return f, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// PeerDownError reports a peer declared dead: its connection failed, or
// the liveness detector saw neither frames nor a consistent heartbeat for
// the configured window. Barrier is the last completed round barrier (-1
// when the failure precedes round context; the distributed engine fills
// it in).
type PeerDownError struct {
	Peer    int
	Barrier int64
	Cause   error
}

func (e *PeerDownError) Error() string {
	at := "barrier unknown"
	if e.Barrier >= 0 {
		at = fmt.Sprintf("last barrier %d", e.Barrier)
	}
	return fmt.Sprintf("net: process %d down (%s): %v", e.Peer, at, e.Cause)
}

func (e *PeerDownError) Unwrap() error { return e.Cause }

// InjectedCrashError is the deliberate death of a process whose FaultPlan
// armed crash injection — the chaos tests' stand-in for a real crash.
type InjectedCrashError struct {
	Run, Round int64
}

func (e *InjectedCrashError) Error() string {
	return fmt.Sprintf("net: injected crash at run %d barrier %d", e.Run, e.Round)
}
