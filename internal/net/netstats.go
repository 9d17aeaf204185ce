package net

import (
	"fmt"
	"time"
)

// NetStats holds the distributed plane's per-run wire and barrier
// counters, accumulated by a DistEngine when its Stats field is armed. The counters answer the two
// questions a round-dominated deployment always asks — how many bytes does
// a round cost on the wire, and how much of the wall clock is barrier wait
// rather than protocol work. Divide by Rounds for per-round costs.
//
// Arming is free when off: a nil Stats pointer costs one branch per
// barrier. All fields are written by the engine goroutine only; read them
// after the run returns.
type NetStats struct {
	// Rounds counts protocol rounds (the Init exchange included) — every
	// round of the run on every process, whether it closed the round in a
	// full exchange, alone in a solo round, or slept through it in a peer's
	// solo stretch (DESIGN.md §13).
	Rounds int64 `json:"rounds"`
	// FramesSent / BytesSent cover the round frames this process encoded,
	// BytesSent measuring payload bytes handed to the transport. Solo
	// rounds send a frame only when a peer must hear, so FramesSent/Rounds
	// is below the every-round exchange's K-1 per process (on the 2-process
	// gnm-256 improvement the cluster sends 1.25 frames per round, not 2).
	FramesSent int64 `json:"frames_sent"`
	BytesSent  int64 `json:"bytes_sent"`
	// HeaderBytes is the share of BytesSent spent on the rank/count
	// headers — the broadcast the varint-delta encoding compresses.
	HeaderBytes int64 `json:"header_bytes"`
	// FramesRecv / BytesRecv cover the peer round frames consumed at
	// barriers.
	FramesRecv int64 `json:"frames_recv"`
	BytesRecv  int64 `json:"bytes_recv"`
	// Flushes counts write-coalescing flush sweeps (one FlushAll per
	// barrier this process sends frames at).
	Flushes int64 `json:"flushes"`
	// BarrierWaitNs is the time the engine goroutine spent blocked in Recv
	// at round barriers, including whole solo stretches slept through.
	// Wire decode time is excluded.
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
}

// String renders the counters for operator output (mdstd -phases).
func (s *NetStats) String() string {
	perRound := func(v int64) int64 {
		if s.Rounds == 0 {
			return 0
		}
		return v / s.Rounds
	}
	return fmt.Sprintf(
		"rounds=%d frames_sent=%d bytes_sent=%d (%d B/round, %d header) frames_recv=%d bytes_recv=%d flushes=%d barrier_wait=%v (%v/round)",
		s.Rounds, s.FramesSent, s.BytesSent, perRound(s.BytesSent), s.HeaderBytes,
		s.FramesRecv, s.BytesRecv, s.Flushes,
		time.Duration(s.BarrierWaitNs).Round(time.Microsecond),
		time.Duration(perRound(s.BarrierWaitNs)).Round(time.Nanosecond))
}
