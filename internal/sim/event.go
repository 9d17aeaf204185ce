package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"mdegst/internal/graph"
)

// DelayFn draws the propagation delay for one message on the directed link
// from -> to. The paper's model bounds every delay by one time unit, so
// delays must lie in (0, 1] — the engines enforce the bound per draw and
// abort the run with a clear error on a violation, because the calendar
// queue's bucket math is only exact inside it.
type DelayFn func(rng *rand.Rand, from, to NodeID) float64

// badDelay aborts a run whose DelayFn left the model's (0, 1] delay bound.
// It unwinds as a panic through the protocol stack and is converted to an
// error by the engines' recover, so a misconfigured delay model cannot
// silently corrupt the calendar queue's bounded time wheel.
type badDelay struct {
	from, to NodeID
	d        float64
}

func (e badDelay) Error() string {
	return fmt.Sprintf("sim: delay %v on link %d->%d outside the model's (0, 1] bound", e.d, e.from, e.to)
}

// checkDelay validates one drawn delay. NaN fails both comparisons.
func checkDelay(d float64, from, to NodeID) {
	if !(d > 0 && d <= 1) {
		panic(badDelay{from: from, to: to, d: d})
	}
}

// PanicError converts a panic recovered from a protocol run into the run's
// error, keeping delay-bound violations and records the report cannot
// count (*WireError) as their own typed errors instead of wrapping them as
// panics.
func PanicError(p any) error {
	switch p.(type) {
	case badDelay, *WireError:
		return p.(error)
	}
	return fmt.Errorf("sim: protocol panic: %v", p)
}

// UnitDelay assigns every message exactly one time unit — the assumption
// under which the paper's time complexity is stated.
func UnitDelay(*rand.Rand, NodeID, NodeID) float64 { return 1 }

// UniformDelay returns delays uniform in (lo, 1]. Use a small lo (for
// example 0.05) as an asynchrony adversary.
func UniformDelay(lo float64) DelayFn {
	if lo < 0 || lo >= 1 {
		panic(fmt.Sprintf("sim: UniformDelay lower bound %v out of range [0,1)", lo))
	}
	return func(rng *rand.Rand, _, _ NodeID) float64 {
		return 1 - rng.Float64()*(1-lo)
	}
}

// EventEngine is a deterministic discrete-event simulator: events are
// delivered in (time, sequence) order, delays come from a seeded RNG, and
// the whole run is reproducible.
//
// The engine is the hot path of the experiment harness, so scheduling is a
// two-tier structure specialised to the model's bounded delays (DESIGN.md
// §6), and both tiers host their nodes on a RoundRunner (round.go). Under
// UnitDelay — the default — the run degenerates into synchronous rounds,
// each round's send slab becoming the next round's inbox with no
// timestamps, RNG or queue at all. Under randomised delays the runner plays
// one delivery at a time off a calendar/bucket queue (wheel.go) whose
// rotating ring of time buckets covers the (now, now+1] delivery window for
// amortised O(1) push/pop instead of a binary heap's O(log m). Every
// per-node and per-link structure is a slice addressed by the CSR
// snapshot's dense index (no map[NodeID] anywhere on the delivery path),
// and the backing arrays are pooled and reused across runs.
// ReferenceEngine keeps the straightforward container/heap implementation
// as the delivery-order oracle; all tiers are checked trace-equivalent by
// the differential tests and compared by the allocation benchmarks.
type EventEngine struct {
	// Seed initialises the delay RNG.
	Seed int64
	// Delay draws per-message delays; nil means UnitDelay.
	Delay DelayFn
	// FIFO preserves per-link delivery order even under random delays
	// (delivery times are clamped to be non-decreasing per directed link).
	// The paper's channels are FIFO; disable to stress protocols under
	// reordering.
	FIFO bool
	// Trace, when non-nil, observes every delivery.
	Trace func(TraceEvent)
	// Checkpoint, when non-nil, arms barrier checkpointing on the
	// unit-delay tier: a freeze at one round barrier or a periodic commit
	// cadence. See checkpoint.go.
	Checkpoint *CheckpointSpec
}

// event is one scheduled delivery: the runner's send record plus its
// delivery time, sequence number and causal depth. It is a pure value
// record — no pointers anywhere — so queues of events are plain slabs the
// GC never scans.
type event struct {
	t     float64
	seq   int64
	depth int64
	d     PendingDelivery
}

func (e event) before(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

// neighborAt returns the position of `to` in from's ascending neighbour
// list and enforces the point-to-point model: a send to a non-neighbour is
// a protocol bug and panics. Short lists are scanned; above linearMax
// entries — the hubs of heavy-tailed graphs — the list is bisected.
func neighborAt(neighbors []NodeID, from, to NodeID) int {
	lo, hi := 0, len(neighbors) // to, if present, sits in [lo, hi)
	for hi-lo > linearMax {
		if m := int(uint(lo+hi) >> 1); neighbors[m] <= to {
			lo = m
		} else {
			hi = m
		}
	}
	for i := lo; i < hi; i++ {
		if neighbors[i] == to {
			return i
		}
	}
	panic(nonNeighbor{from, to})
}

// linearMax is the list length below which neighborAt stops bisecting.
const linearMax = 8

// nonNeighbor is the panic of a send outside the point-to-point model; a
// plain value keeps neighborAt inlinable.
type nonNeighbor struct{ from, to NodeID }

func (e nonNeighbor) Error() string {
	return fmt.Sprintf("sim: node %d sent to non-neighbour %d", e.from, e.to)
}

// eventScratch is the random-delay tier's pooled state beside its runner:
// the calendar queue's bucket ring and the FIFO clamps, one per CSR
// half-edge. Pooled so repeated runs — the parallel experiment harness
// executes thousands — allocate it once per worker instead of once per
// run.
type eventScratch struct {
	wheel bucketQueue
	// one is the inbox of the delivery being played: the handler reads
	// its record in place, so it lives here rather than on the stack.
	one [1]PendingDelivery
	// clamp holds, per directed link (CSR half-edge), the latest delivery
	// time already scheduled on it; FIFO order clamps new delivery times
	// to it.
	clamp []float64
}

var scratchPool = sync.Pool{New: func() any { return new(eventScratch) }}

// reset readies s for a run: empty clamps and an empty wheel (an abnormal
// exit — protocol panic, livelock abort — leaves events behind, flat
// records that must not leak into this run).
func (s *eventScratch) reset(halfEdges int) {
	s.clamp = growCap(s.clamp, halfEdges)
	clear(s.clamp)
	s.wheel.reset()
}

// Run executes the protocol to quiescence over a compiled snapshot.
// Protocol panics are converted to errors so a buggy node cannot take down
// the harness. The scheduler tier is picked here: UnitDelay runs the
// synchronous round engine, every other delay model the calendar queue —
// both delivery-trace-equivalent to ReferenceEngine.
func (e *EventEngine) Run(c *graph.CSR, f Factory) (protos []Protocol, rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			protos, rep = nil, nil
			err = PanicError(p)
		}
	}()
	start := time.Now()
	if isUnitDelay(e.Delay) {
		return e.runRounds(c, f, start, nil)
	}
	if e.Checkpoint != nil {
		return nil, nil, errCheckpointTier
	}
	return e.runWheel(c, f, start)
}

// runWheel is EventEngine's random-delay tier. The runner plays one
// delivery at a time, in (time, sequence) order off the calendar queue;
// after Init and after each delivery the driver walks the runner's send
// slab in send order, drawing each send's delay, clamping it per directed
// link under FIFO and numbering it — the order in which the sends
// happened, so delays and sequence numbers are exactly those of sending
// straight from the handler. Called from Run, which owns panic recovery.
func (e *EventEngine) runWheel(c *graph.CSR, f Factory, start time.Time) ([]Protocol, *Report, error) {
	r := roundPool.Get().(*RoundRunner)
	defer r.release()
	r.Reset(c, f)
	r.trace = e.Trace
	s := scratchPool.Get().(*eventScratch)
	defer scratchPool.Put(s)
	s.reset(c.HalfEdges())
	rng := rand.New(rand.NewSource(e.Seed))
	g := NewGuard(c)
	var seq int64
	now, depth := 0.0, int64(0)
	// All nodes start independently; Init runs at time zero in ID order.
	r.initAll()
	for {
		for i := range r.sent {
			d := &r.sent[i]
			from, to := r.ids[d.From], r.ids[d.To]
			dt := e.Delay(rng, from, to)
			checkDelay(dt, from, to)
			t := now + dt
			if e.FIFO {
				h := c.HalfEdge(d.From, slices.Index(c.Neighbors(d.From), d.To))
				t = max(t, s.clamp[h])
				s.clamp[h] = t
			}
			seq++
			s.wheel.push(event{t: t, seq: seq, depth: depth + 1, d: *d})
		}
		if s.wheel.empty() {
			break
		}
		ev := s.wheel.pop()
		if g.Observe(r.report, r.report.Messages); g.Trips(r.report.Messages, 1) {
			return nil, nil, g.Abort(r.report.Messages)
		}
		now, depth = ev.t, ev.depth
		s.one[0] = ev.d
		r.playAt(now, depth, s.one[:])
	}
	// Deliveries pop in time order, so the last one's time is the run's.
	r.report.VirtualTime = now
	r.report.Finalize()
	r.report.Wall = time.Since(start)
	// Copy out of the pooled runner: release clears its protocol slots.
	return append([]Protocol(nil), r.protos...), r.report, nil
}

// Resume continues a run frozen at a round barrier: the factory rebuilds
// the protocol instances (each must implement StateCodec), the checkpoint
// restores their states, the report counters and the pending delivery
// slab, and the run proceeds to quiescence. The resumed run's Report,
// delivery trace and final protocol states are identical to the
// uninterrupted run's.
func (e *EventEngine) Resume(c *graph.CSR, f Factory, ck *Checkpoint) (protos []Protocol, rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			protos, rep = nil, nil
			err = PanicError(p)
		}
	}()
	start := time.Now()
	if !isUnitDelay(e.Delay) {
		return nil, nil, errCheckpointTier
	}
	if err := ck.ValidateAgainst(c); err != nil {
		return nil, nil, err
	}
	return e.runRounds(c, f, start, ck)
}

var _ ResumableEngine = (*EventEngine)(nil)
