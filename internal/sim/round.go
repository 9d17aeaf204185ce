package sim

import (
	"reflect"
	"sync"
	"time"

	"mdegst/internal/graph"
)

// The unit-delay round runner (DESIGN.md §6, §13). Under UnitDelay — the
// paper's default and the dominant experiment configuration — every
// message sent while processing time t is delivered at exactly t+1, so the
// (time, sequence) heap order degenerates into rounds: all deliveries of
// round r, in global send order, then all of round r+1. No timestamps, no
// RNG, no FIFO clamps (per-link send times are already non-decreasing, so
// the clamp can never bind). Causal depth equals the round number equals
// the virtual time, which is exactly what the heap path computes under
// unit delays — the differential tests hold the tiers (and
// ReferenceEngine) to identical delivery traces.
//
// RoundRunner plays such rounds for two drivers. Its Init and Play append
// every send, in send order, to one flat slab of pointer-free records and
// note, per played delivery, the slab offset where that delivery's sends
// end. EventEngine's unit tier (runRounds below) plays every node and
// swaps the slab into the next round's inbox; internal/net's DistEngine
// plays one process's share of a partitioned run and routes the slab to
// the receivers' owners at the barrier. EventEngine's random-delay tier
// (runWheel, event.go) is a third driver: it has the runner play one
// delivery at a time and schedules the slab on its calendar queue.
//
// The barrier between two rounds is also the checkpoint cut (DESIGN.md
// §8): with the inbox drained, the entire in-flight state of the run is
// the send slab (flat records in exactly the global send order) plus the
// per-node protocol states.

// isUnitDelay reports whether d is the package's UnitDelay (or nil, which
// defaults to it). Wrappers around UnitDelay are not detected and take the
// calendar-queue path, which is correct, just slower.
func isUnitDelay(d DelayFn) bool {
	return d == nil || reflect.ValueOf(d).Pointer() == reflect.ValueOf(UnitDelay).Pointer()
}

// RoundRunner plays unit-delay rounds over a compiled snapshot, or single
// deliveries for the random-delay tier. It holds a protocol instance and a
// context for every node; a driver decides which deliveries it plays. The
// zero value is ready for Reset, and every slab keeps its capacity across
// runs, so a warm runner plays without allocating. All methods must be
// called from one goroutine.
type RoundRunner struct {
	ids    []NodeID
	protos []Protocol
	ctxs   []unitCtx
	sent   []PendingDelivery // sends of the phase being played, in send order
	ends   []int             // per played delivery: where its sends end in sent
	cur    []PendingDelivery // the unit tier's inbox slab
	all    []int32           // the in-process drivers' Init order: every node
	trace  func(TraceEvent)
	report *Report
	cnt    counters // the accumulator lent to the report
}

// unitCtx is the Context of one node on the round runner.
type unitCtx struct {
	r         *RoundRunner
	id        NodeID
	dense     int32
	next      int // the neighbour after the last send's: a broadcast's next receiver
	neighbors []NodeID
	nbrDense  []int32
}

func (c *unitCtx) ID() NodeID          { return c.id }
func (c *unitCtx) Neighbors() []NodeID { return c.neighbors }

// Out appends the send's record to the runner's slab and hands it out to
// be filled in place: the record is never copied on the way to the slab.
// Handlers that send along their neighbour list in order find each
// receiver at the cursor, the rest by neighborAt.
func (c *unitCtx) Out(to NodeID) *WireMsg {
	i := c.next
	if i >= len(c.neighbors) || c.neighbors[i] != to {
		i = neighborAt(c.neighbors, c.id, to)
	}
	c.next = i + 1
	// Extend the slab by hand: appending a composite literal would build
	// the 80-byte record on the stack and copy it over.
	r := c.r
	k := len(r.sent)
	if k == cap(r.sent) {
		r.sent = append(r.sent, PendingDelivery{})
	}
	r.sent = r.sent[:k+1]
	d := &r.sent[k]
	d.From, d.To, d.Msg = c.dense, c.nbrDense[i], WireMsg{}
	return &d.Msg
}

// Reset readies r for a run over c: a context and a factory-built protocol
// for every node, in dense order, empty slabs and a fresh report with r's
// accumulator lent to it.
func (r *RoundRunner) Reset(c *graph.CSR, f Factory) {
	n := c.N()
	r.ids = c.Index().IDs()
	r.protos = growCap(r.protos, n)
	r.ctxs = growCap(r.ctxs, n)
	for v := range n {
		dv := int32(v)
		r.ctxs[v] = unitCtx{r: r, id: r.ids[v], dense: dv, neighbors: c.NeighborIDs(dv), nbrDense: c.Neighbors(dv)}
		r.protos[v] = f(r.ids[v], r.ctxs[v].neighbors)
	}
	r.sent, r.ends, r.cur = r.sent[:0], r.ends[:0], r.cur[:0]
	r.trace = nil
	r.report = newRunReport(&r.cnt, r.ids)
}

// growCap returns s resized to length n, reallocating only when the
// recycled capacity is short. Contents are unspecified; callers rewrite.
func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Init runs Init at the given nodes in order. Their sends form the slab
// of round 1, and ends[i] closes the sends of nodes[i].
func (r *RoundRunner) Init(nodes []int32) {
	r.sent = r.sent[:0]
	r.ends = growCap(r.ends, len(nodes))
	for i, v := range nodes {
		r.protos[v].Init(&r.ctxs[v])
		r.ends[i] = len(r.sent)
	}
}

// Play delivers inbox, in order, as round round (depth accounting), and
// collects the handlers' sends into a fresh slab; ends[i] closes the sends
// of inbox[i]. Each handler reads its record in place, so the inbox must
// not alias the send slab.
func (r *RoundRunner) Play(round int64, inbox []PendingDelivery) {
	r.playAt(float64(round), round, inbox)
}

// playAt is Play at virtual time t and causal depth depth, which differ
// only on the random-delay tier: it counts the deliveries and their depth
// once, then each delivery on the report's accumulator, traces it and
// runs the receiver's handler.
func (r *RoundRunner) playAt(t float64, depth int64, inbox []PendingDelivery) {
	r.sent = r.sent[:0]
	r.ends = growCap(r.ends, len(inbox))
	rep := r.report
	rep.countPlay(len(inbox), depth)
	for i := range inbox {
		d := &inbox[i]
		from := r.ids[d.From]
		rep.countMsg(d.From, &d.Msg)
		if r.trace != nil {
			r.trace(TraceEvent{Time: t, Depth: depth, From: from, To: r.ids[d.To], Msg: d.Msg})
		}
		r.protos[d.To].Recv(&r.ctxs[d.To], from, &d.Msg)
		r.ends[i] = len(r.sent)
	}
}

// initAll runs Init at every node in dense (ID) order: the start of an
// in-process run.
func (r *RoundRunner) initAll() {
	r.all = growCap(r.all, len(r.protos))
	for v := range r.all {
		r.all[v] = int32(v)
	}
	r.Init(r.all)
}

// Sent returns the sends of the last Init or Play, in send order, and per
// played delivery the offset in that slab where its sends end. Valid until
// the next Init or Play.
func (r *RoundRunner) Sent() ([]PendingDelivery, []int) { return r.sent, r.ends }

// Protos returns the per-dense-node protocol instances. Shared; do not
// modify.
func (r *RoundRunner) Protos() []Protocol { return r.protos }

// Report returns the accounting of the deliveries played since Reset.
func (r *RoundRunner) Report() *Report { return r.report }

var roundPool = sync.Pool{New: func() any { return new(RoundRunner) }}

// release zeroes what can pin protocol state or snapshot arrays and pools
// the runner. The slabs are flat records and keep their capacity.
func (r *RoundRunner) release() {
	clear(r.ctxs)
	clear(r.protos)
	r.trace, r.report = nil, nil
	roundPool.Put(r)
}

// runRounds is EventEngine's unit-delay tier: it executes the protocol to
// quiescence in synchronous rounds, every round's sends becoming the next
// round's inbox. With ck non-nil the run continues a checkpoint instead of
// starting at Init: the protocols decode their saved states, the report
// counters are restored and the pending slab becomes the first inbox — the
// run goes on as if it had never stopped. Called from EventEngine.Run and
// Resume, which own panic recovery.
func (e *EventEngine) runRounds(c *graph.CSR, f Factory, start time.Time, ck *Checkpoint) ([]Protocol, *Report, error) {
	r := roundPool.Get().(*RoundRunner)
	defer r.release()
	r.Reset(c, f)
	r.trace = e.Trace
	g := NewGuard(c)
	round := int64(0)
	if ck == nil {
		// All nodes start independently; Init runs at time zero in ID order
		// and its sends form round 1.
		r.initAll()
		if e.Checkpoint.Next(-1) == 0 {
			return nil, nil, e.barrier(r, c, 0)
		}
	} else {
		if err := ck.RestoreStates(r.protos); err != nil {
			return nil, nil, err
		}
		if err := ck.RestoreCounters(r.report); err != nil {
			return nil, nil, err
		}
		g.Resume(ck)
		round = ck.Round
		r.sent = append(r.sent, ck.Pending...)
	}
	for len(r.sent) > 0 {
		r.cur, r.sent = r.sent, r.cur[:0]
		// The guard sees the rounds played so far and stops the run here,
		// at the barrier, if this round would overrun its window.
		if g.Observe(r.report, r.report.Messages); g.Trips(r.report.Messages, int64(len(r.cur))) {
			return nil, nil, g.Abort(r.report.Messages)
		}
		round++
		r.Play(round, r.cur)
		// A resumed run re-enters at ck.Round+1, so the barrier it resumed
		// from is never re-committed.
		if e.Checkpoint.Next(round-1) == round {
			if err := e.barrier(r, c, round); err != nil {
				return nil, nil, err
			}
		}
	}
	r.report.VirtualTime = float64(round)
	r.report.Finalize()
	r.report.Wall = time.Since(start)
	// Copy out of the pooled runner: release clears its protocol slots.
	return append([]Protocol(nil), r.protos...), r.report, nil
}

// barrier checkpoints the run at the barrier after round, the send slab
// holding round+1 in global send order. A periodic commit returns nil and
// the run goes on; a freeze returns ErrCheckpointed.
func (e *EventEngine) barrier(r *RoundRunner, c *graph.CSR, round int64) error {
	ck, err := Capture(c, round, r.report, r.protos, r.sent)
	if err != nil {
		return err
	}
	if err := e.Checkpoint.Store(ck); err != nil {
		return err
	}
	if e.Checkpoint.Every == 0 {
		return ErrCheckpointed
	}
	return nil
}
