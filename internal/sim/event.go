package sim

import (
	"fmt"
	"math/rand"
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
// §6): under UnitDelay — the default — the run degenerates into synchronous
// rounds played by a RoundRunner (round.go), each round's send slab
// becoming the next round's inbox with no timestamps, RNG or queue at
// all; under randomised delays events go through a calendar/bucket queue
// (wheel.go) whose rotating ring of time buckets covers the (now, now+1]
// delivery window for amortised O(1) push/pop instead of a binary heap's
// O(log m). Every per-node structure — contexts, protocol instances, FIFO
// clamp intervals — lives in one slice addressed by the CSR snapshot's
// dense index (no map[NodeID] anywhere on the delivery path), and the
// backing arrays are pooled and reused across runs. Each event carries its
// destination's dense index, so a delivery is two slice loads. ReferenceEngine keeps the straightforward
// container/heap implementation as the delivery-order oracle; all tiers are
// checked trace-equivalent by the differential tests and compared by the
// allocation benchmarks.
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
	// Trace, when non-nil, observes every delivery and Logf note.
	Trace func(TraceEvent)
	// Checkpoint, when non-nil, arms barrier checkpointing on the
	// unit-delay tier: a freeze at one round barrier or a periodic commit
	// cadence. See checkpoint.go.
	Checkpoint *CheckpointSpec
}

// event is one scheduled delivery. With the flat message plane it is a
// pure value record — no pointers anywhere — so queues of events are plain
// slabs the GC never scans.
type event struct {
	t       float64
	seq     int64
	depth   int64
	from    NodeID
	to      NodeID
	toDense int32
	msg     WireMsg
}

func (e event) before(o event) bool {
	if e.t != o.t {
		return e.t < o.t
	}
	return e.seq < o.seq
}

type eventCtx struct {
	eng *eventRun
	id  NodeID
	// neighbors and nbrDense are the snapshot's neighbour views for this
	// node (NodeIDs for the Protocol contract, dense indices for event
	// addressing), same position order.
	neighbors []NodeID
	nbrDense  []int32
	// clamp holds, per neighbour (same index as neighbors), the latest
	// delivery time already scheduled on the directed link id->neighbor.
	// FIFO order is enforced by clamping new delivery times to it.
	clamp []float64
	// now/depth of the message currently being processed at this node.
	now   float64
	depth int64
}

func (c *eventCtx) ID() NodeID          { return c.id }
func (c *eventCtx) Neighbors() []NodeID { return c.neighbors }

func (c *eventCtx) Send(to NodeID, m WireMsg) {
	c.eng.send(c, neighborAt(c.neighbors, c.id, to), to, m)
}

func (c *eventCtx) Logf(format string, args ...any) {
	if c.eng.trace != nil {
		c.eng.trace(TraceEvent{Time: c.now, Depth: c.depth, To: c.id, Note: fmt.Sprintf(format, args...)})
	}
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

type eventRun struct {
	rng    *rand.Rand
	delay  DelayFn
	fifo   bool
	trace  func(TraceEvent)
	wheel  *bucketQueue
	seq    int64
	report *Report
}

func (er *eventRun) send(c *eventCtx, ni int, to NodeID, m WireMsg) {
	d := er.delay(er.rng, c.id, to)
	checkDelay(d, c.id, to)
	t := c.now + d
	if er.fifo {
		if last := c.clamp[ni]; t < last {
			t = last
		}
		c.clamp[ni] = t
	}
	er.seq++
	er.wheel.push(event{t: t, seq: er.seq, depth: c.depth + 1, from: c.id, to: to, toDense: c.nbrDense[ni], msg: m})
}

// eventScratch is the reusable per-run state: the calendar queue's bucket
// ring, the node contexts, the protocol instances and the FIFO clamp backing
// array — all dense-index addressed. Pooled so repeated runs — the parallel
// experiment harness executes thousands — allocate it once per worker
// instead of once per run.
type eventScratch struct {
	wheel  bucketQueue
	ctxs   []eventCtx
	protos []Protocol
	clamp  []float64
}

var scratchPool = sync.Pool{New: func() any { return new(eventScratch) }}

func (s *eventScratch) reset(n, halfEdges int) {
	if cap(s.ctxs) < n {
		s.ctxs = make([]eventCtx, n)
	}
	s.ctxs = s.ctxs[:n]
	if cap(s.protos) < n {
		s.protos = make([]Protocol, n)
	}
	s.protos = s.protos[:n]
	if cap(s.clamp) < halfEdges {
		s.clamp = make([]float64, halfEdges)
	}
	s.clamp = s.clamp[:halfEdges]
	clear(s.clamp)
	s.wheel.reset()
}

func (s *eventScratch) release() {
	// Reset the wheel (abnormal exits leave events behind — flat records,
	// but stale ones must not leak into the next run) and zero the contexts
	// and protocol slots so pooled memory does not pin protocol state or
	// the snapshot's neighbour arrays.
	s.wheel.reset()
	for i := range s.ctxs {
		s.ctxs[i] = eventCtx{}
	}
	clear(s.protos)
	scratchPool.Put(s)
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
	return e.run(c, f)
}

// run is the body of Run; callers own panic recovery.
func (e *EventEngine) run(c *graph.CSR, f Factory) ([]Protocol, *Report, error) {
	start := time.Now()
	delay := e.Delay
	maxMsgs := e.MaxMessages
	if maxMsgs == 0 {
		maxMsgs = DefaultMaxMessages
	}
	if isUnitDelay(delay) {
		return e.runRounds(c, f, maxMsgs, start, nil)
	}
	if e.Checkpoint != nil {
		return nil, nil, errCheckpointTier
	}
	er := &eventRun{
		rng:    rand.New(rand.NewSource(e.Seed)),
		delay:  delay,
		fifo:   e.FIFO,
		trace:  e.Trace,
		report: NewReport(),
	}
	n := c.N()
	ids := c.Index().IDs()
	scratch := scratchPool.Get().(*eventScratch)
	defer scratch.release()
	scratch.reset(n, c.HalfEdges())
	er.wheel = &scratch.wheel

	for i := 0; i < n; i++ {
		di := int32(i)
		lo, hi := c.HalfEdge(di, 0), c.HalfEdge(di, c.Degree(di))
		scratch.ctxs[i] = eventCtx{
			eng:       er,
			id:        ids[i],
			neighbors: c.NeighborIDs(di),
			nbrDense:  c.Neighbors(di),
			clamp:     scratch.clamp[lo:hi],
		}
		scratch.protos[i] = f(ids[i], scratch.ctxs[i].neighbors)
	}
	// All nodes start independently; Init runs at time zero in ID order.
	for i := 0; i < n; i++ {
		scratch.protos[i].Init(&scratch.ctxs[i])
	}
	for !er.wheel.empty() {
		ev := er.wheel.pop()
		if er.report.Messages >= maxMsgs {
			return nil, nil, NewBudgetError(er.report.Messages, maxMsgs, er.report)
		}
		ctx := &scratch.ctxs[ev.toDense]
		ctx.now = ev.t
		ctx.depth = ev.depth
		er.report.record(ev.from, ev.msg, ev.depth)
		if ev.t > er.report.VirtualTime {
			er.report.VirtualTime = ev.t
		}
		if er.trace != nil {
			er.trace(TraceEvent{Time: ev.t, Depth: ev.depth, From: ev.from, To: ev.to, Msg: ev.msg})
		}
		scratch.protos[ev.toDense].Recv(ctx, ev.from, ev.msg)
	}
	er.report.Finalize()
	er.report.Wall = time.Since(start)
	// Copy out of the pooled scratch: release clears its protocol slots.
	return append([]Protocol(nil), scratch.protos...), er.report, nil
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
