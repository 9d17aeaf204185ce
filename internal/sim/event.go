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

// recoverRun converts a protocol panic into an error, keeping delay-bound
// violations as their own typed error instead of wrapping them as panics.
func recoverRun(p any) error {
	if bd, ok := p.(badDelay); ok {
		return bd
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

// DefaultMaxMessages caps runaway protocols in the event engine.
const DefaultMaxMessages = 200_000_000

// BudgetError is the typed abort of a run that reached its message budget
// (MaxMessages, DefaultMaxMessages when unset): Messages had been delivered
// and the run still had deliveries pending. The engines that enforce a
// budget (EventEngine, ReferenceEngine and internal/net's DistEngine) abort
// through NewBudgetError; callers match it with errors.As. AsyncEngine has
// no message budget.
type BudgetError struct {
	Messages int64 // deliveries made when the run aborted
	Limit    int64 // the budget
	// Rounds is the highest protocol round among the deliveries the
	// aborting report had counted (Report.Rounds): a run that aborts in an
	// early round is likelier stuck than one that aborts late.
	Rounds int
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("sim: exceeded %d messages by protocol round %d; protocol livelock?", e.Limit, e.Rounds)
}

// NewBudgetError builds the budget abort after delivered messages under
// limit, taking Rounds from the run's report.
func NewBudgetError(delivered, limit int64, rep *Report) error {
	return &BudgetError{Messages: delivered, Limit: limit, Rounds: rep.Rounds()}
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
	// MaxMessages aborts the run when exceeded (0 means
	// DefaultMaxMessages); it converts protocol livelock into an error.
	MaxMessages int64
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
// a protocol bug and panics. Linear scan: degrees are small, and a binary
// search measured slower even on the heavy-tailed workloads.
func neighborAt(neighbors []NodeID, from, to NodeID) int {
	for i, n := range neighbors {
		if n == to {
			return i
		}
	}
	panic(nonNeighbor{from, to})
}

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
			err = recoverRun(p)
		}
	}()
	start := time.Now()
	maxMsgs := e.MaxMessages
	if maxMsgs == 0 {
		maxMsgs = DefaultMaxMessages
	}
	if isUnitDelay(e.Delay) {
		return e.runRounds(c, f, maxMsgs, start, nil)
	}
	if e.Checkpoint != nil {
		return nil, nil, errCheckpointTier
	}
	return e.runWheel(c, f, maxMsgs, start)
}

// runWheel is EventEngine's random-delay tier. The runner plays one
// delivery at a time, in (time, sequence) order off the calendar queue;
// after Init and after each delivery the driver walks the runner's send
// slab in send order, drawing each send's delay, clamping it per directed
// link under FIFO and numbering it — the order in which the sends
// happened, so delays and sequence numbers are exactly those of sending
// straight from the handler. Called from Run, which owns panic recovery.
func (e *EventEngine) runWheel(c *graph.CSR, f Factory, maxMsgs int64, start time.Time) ([]Protocol, *Report, error) {
	r := roundPool.Get().(*RoundRunner)
	defer r.release()
	r.Reset(c, f)
	r.trace = e.Trace
	s := scratchPool.Get().(*eventScratch)
	defer scratchPool.Put(s)
	s.reset(c.HalfEdges())
	rng := rand.New(rand.NewSource(e.Seed))
	var seq int64
	now, depth := 0.0, int64(0)
	// All nodes start independently; Init runs at time zero in ID order.
	r.initAll()
	for {
		for _, d := range r.sent {
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
			s.wheel.push(event{t: t, seq: seq, depth: depth + 1, d: d})
		}
		if s.wheel.empty() {
			break
		}
		ev := s.wheel.pop()
		if r.report.Messages >= maxMsgs {
			return nil, nil, NewBudgetError(r.report.Messages, maxMsgs, r.report)
		}
		now, depth = ev.t, ev.depth
		r.playAt(now, depth, []PendingDelivery{ev.d})
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
			err = recoverRun(p)
		}
	}()
	start := time.Now()
	if !isUnitDelay(e.Delay) {
		return nil, nil, errCheckpointTier
	}
	if err := ck.ValidateAgainst(c); err != nil {
		return nil, nil, err
	}
	maxMsgs := e.MaxMessages
	if maxMsgs == 0 {
		maxMsgs = DefaultMaxMessages
	}
	return e.runRounds(c, f, maxMsgs, start, ck)
}

var _ ResumableEngine = (*EventEngine)(nil)
