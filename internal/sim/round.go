package sim

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"mdegst/internal/graph"
)

// The synchronous round engine behind EventEngine's unit-delay fast path.
// Under UnitDelay — the paper's default and the dominant experiment
// configuration — every message sent while processing time t is delivered at
// exactly t+1, so the (time, sequence) heap order degenerates into rounds:
// all deliveries of round r, in global send order, then all of round r+1.
// No timestamps, no RNG, no FIFO clamps (per-link send times are already
// non-decreasing, so the clamp can never bind): just two flat delivery
// slices swapped per round over the CSR snapshot. Deliveries are flat
// WireMsg records, so the slabs hold no pointers and the swap is the whole
// round hand-off. Causal depth equals the round number equals the virtual
// time, which is exactly what the heap path computes under unit delays —
// the differential tests hold the two (and ReferenceEngine) to identical
// delivery traces.
//
// The inter-round barrier is also the checkpoint cut (DESIGN.md §8): with
// rr.cur drained, the entire in-flight state of the run is rr.next (flat
// records in exactly the global send order) plus the per-node protocol
// states — which is what runRoundsFrom snapshots and reseeds.

// isUnitDelay reports whether d is the package's UnitDelay (or nil, which
// defaults to it). Wrappers around UnitDelay are not detected and take the
// calendar-queue path, which is correct, just slower.
func isUnitDelay(d DelayFn) bool {
	return d == nil || reflect.ValueOf(d).Pointer() == reflect.ValueOf(UnitDelay).Pointer()
}

// roundDelivery is one queued message of the current or next round. The
// sender appears twice — identity for Recv and trace, dense index for the
// report's dense send counters — trading four bytes per record for no
// identity lookups on either path.
type roundDelivery struct {
	from      NodeID
	fromDense int32
	toDense   int32
	msg       WireMsg
}

type roundRun struct {
	cur    []roundDelivery // deliveries of the round being processed, in send order
	next   []roundDelivery // deliveries of round round+1, in send order
	round  int64           // round currently being delivered (0 while Init runs)
	trace  func(TraceEvent)
	report *Report
}

type roundCtx struct {
	run       *roundRun
	id        NodeID
	dense     int32
	neighbors []NodeID
	nbrDense  []int32
}

func (c *roundCtx) ID() NodeID          { return c.id }
func (c *roundCtx) Neighbors() []NodeID { return c.neighbors }

func (c *roundCtx) Send(to NodeID, m WireMsg) {
	ni := neighborIndex(c.neighbors, to)
	if ni < 0 {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbour %d", c.id, to))
	}
	r := c.run
	r.next = append(r.next, roundDelivery{from: c.id, fromDense: c.dense, toDense: c.nbrDense[ni], msg: m})
}

func (c *roundCtx) Logf(format string, args ...any) {
	if r := c.run; r.trace != nil {
		r.trace(TraceEvent{Time: float64(r.round), Depth: r.round, To: c.id, Note: fmt.Sprintf(format, args...)})
	}
}

// roundScratch pools the per-run state of the round engine, mirroring
// eventScratch for the wheel path. The delivery slabs are pointer-free
// flat buffers, so pooling them costs the GC nothing.
type roundScratch struct {
	ctxs      []roundCtx
	protos    []Protocol
	cur, next []roundDelivery
	sent      []int64 // dense send counters lent to the report
	kr        krSlab  // (round, opcode) counters lent to the report
}

var roundPool = sync.Pool{New: func() any { return new(roundScratch) }}

func (s *roundScratch) reset(n int) {
	if cap(s.ctxs) < n {
		s.ctxs = make([]roundCtx, n)
	}
	s.ctxs = s.ctxs[:n]
	if cap(s.protos) < n {
		s.protos = make([]Protocol, n)
	}
	s.protos = s.protos[:n]
	if cap(s.sent) < n {
		s.sent = make([]int64, n)
	}
	s.sent = s.sent[:n]
	clear(s.sent)
	s.cur, s.next = s.cur[:0], s.next[:0]
}

func (s *roundScratch) release() {
	// Zero what can pin protocol state or snapshot arrays. The delivery
	// slabs are flat records and only need truncating.
	s.cur, s.next = s.cur[:0], s.next[:0]
	for i := range s.ctxs {
		s.ctxs[i] = roundCtx{}
	}
	clear(s.protos)
	roundPool.Put(s)
}

// runRounds executes the protocol to quiescence in synchronous rounds.
// Called from EventEngine.Run (which owns panic recovery) when the
// delay model is UnitDelay.
func (e *EventEngine) runRounds(c *graph.CSR, f Factory, maxMsgs int64, start time.Time) ([]Protocol, *Report, error) {
	return e.runRoundsFrom(c, f, maxMsgs, start, nil)
}

// runRoundsFrom is runRounds optionally reseeded from a checkpoint: with
// ck nil the run starts at Init; otherwise the protocols decode their
// saved states, the report counters are restored and rr.next is refilled
// with the checkpoint's pending slab — the run continues as if it had
// never stopped.
func (e *EventEngine) runRoundsFrom(c *graph.CSR, f Factory, maxMsgs int64, start time.Time, ck *Checkpoint) ([]Protocol, *Report, error) {
	rr := &roundRun{trace: e.Trace, report: newReport()}
	n := c.N()
	ids := c.Index().IDs()
	scratch := roundPool.Get().(*roundScratch)
	defer scratch.release()
	scratch.reset(n)
	rr.cur, rr.next = scratch.cur, scratch.next
	rr.report.adoptDenseSent(scratch.sent, ids)
	rr.report.adoptKR(&scratch.kr)

	for i := 0; i < n; i++ {
		di := int32(i)
		scratch.ctxs[i] = roundCtx{
			run:       rr,
			id:        ids[i],
			dense:     di,
			neighbors: c.NeighborIDs(di),
			nbrDense:  c.Neighbors(di),
		}
		scratch.protos[i] = f(ids[i], scratch.ctxs[i].neighbors)
	}
	if ck == nil {
		// All nodes start independently; Init runs at time zero in ID order
		// and its sends form round 1.
		for i := 0; i < n; i++ {
			scratch.protos[i].Init(&scratch.ctxs[i])
		}
	} else {
		if err := ck.decodeStates(scratch.protos); err != nil {
			return nil, nil, err
		}
		ck.restoreReport(rr.report)
		rr.round = ck.Round
		for _, p := range ck.Pending {
			rr.next = append(rr.next, roundDelivery{from: ids[p.From], fromDense: p.From, toDense: p.To, msg: p.Msg})
		}
	}
	spec := e.Checkpoint
	if spec != nil && spec.Every == 0 && spec.Round == 0 && ck == nil {
		// Barrier 0: the state right after Init, before any delivery.
		return nil, nil, e.writeRoundCheckpoint(rr, scratch.protos, c)
	}
	for len(rr.next) > 0 {
		rr.cur, rr.next = rr.next, rr.cur[:0]
		// Mirror the swap onto the scratch so release keeps the live backing
		// arrays pooled even when Recv panics mid-round.
		scratch.cur, scratch.next = rr.cur, rr.next
		rr.round++
		t := float64(rr.round)
		for i := range rr.cur {
			d := &rr.cur[i]
			if rr.report.Messages >= maxMsgs {
				return nil, nil, NewBudgetError(rr.report.Messages, maxMsgs)
			}
			rr.report.recordFast(d.fromDense, &d.msg, rr.round)
			if rr.trace != nil {
				rr.trace(TraceEvent{Time: t, Depth: rr.round, From: d.from, To: ids[d.toDense], Msg: d.msg})
			}
			scratch.protos[d.toDense].Recv(&scratch.ctxs[d.toDense], d.from, d.msg)
		}
		scratch.next = rr.next
		if spec != nil {
			if spec.Every > 0 {
				// Periodic cadence: commit at every multiple of Every and keep
				// running. A resumed run re-enters the loop at ck.Round+1, so
				// the barrier it resumed from is never re-committed.
				if rr.round%spec.Every == 0 {
					if err := e.commitRoundCheckpoint(rr, scratch.protos, c); err != nil {
						return nil, nil, err
					}
					// The capture folded the dense send counts into the
					// report's map and detached the slab; re-arm it zeroed so
					// recordFast keeps accumulating the delta on top.
					clear(scratch.sent)
					rr.report.adoptDenseSent(scratch.sent, ids)
				}
			} else if rr.round == spec.Round {
				return nil, nil, e.writeRoundCheckpoint(rr, scratch.protos, c)
			}
		}
	}
	scratch.cur, scratch.next = rr.cur, rr.next
	rr.report.VirtualTime = float64(rr.round)
	rr.report.finalize()
	rr.report.Wall = time.Since(start)
	// Copy out of the pooled scratch: release clears its protocol slots.
	return append([]Protocol(nil), scratch.protos...), rr.report, nil
}

// captureRoundCheckpoint snapshots the run at the current barrier — rr.cur
// drained, rr.next holding round rr.round+1 in global send order.
func (e *EventEngine) captureRoundCheckpoint(rr *roundRun, protos []Protocol, c *graph.CSR) (*Checkpoint, error) {
	ck := &Checkpoint{Round: rr.round, N: c.N(), HalfEdges: c.HalfEdges()}
	ck.captureReport(rr.report)
	if err := ck.encodeStates(protos); err != nil {
		return nil, err
	}
	ck.Pending = make([]PendingDelivery, len(rr.next))
	for i, d := range rr.next {
		ck.Pending[i] = PendingDelivery{From: d.fromDense, To: d.toDense, Msg: d.msg}
	}
	return ck, nil
}

// writeRoundCheckpoint freezes the run at the current barrier, writes it to
// the armed CheckpointSpec and returns ErrCheckpointed.
func (e *EventEngine) writeRoundCheckpoint(rr *roundRun, protos []Protocol, c *graph.CSR) error {
	ck, err := e.captureRoundCheckpoint(rr, protos, c)
	if err != nil {
		return err
	}
	if err := ck.Write(e.Checkpoint.W); err != nil {
		return err
	}
	return ErrCheckpointed
}

// commitRoundCheckpoint durably commits the current barrier through the
// periodic Sink; the run keeps going.
func (e *EventEngine) commitRoundCheckpoint(rr *roundRun, protos []Protocol, c *graph.CSR) error {
	ck, err := e.captureRoundCheckpoint(rr, protos, c)
	if err != nil {
		return err
	}
	return e.Checkpoint.Sink.Commit(rr.round, ck.Write)
}
