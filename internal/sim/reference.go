package sim

import (
	"container/heap"
	"math/rand"
	"time"

	"mdegst/internal/graph"
)

// ReferenceEngine is the straightforward discrete-event simulator that
// EventEngine started from: container/heap over boxed events, a map keyed by
// directed node pairs for the FIFO clamp, and fresh state every run. Its
// per-node state (contexts, protocol instances) is addressed by the
// snapshot's dense index like every other engine, but each send still
// pays the NodeID->dense map lookup that the fast path reads off the CSR.
// It is kept as the delivery-order oracle for EventEngine's optimised fast
// path — tests assert the two produce identical reports and trees for
// identical seeds — and as the baseline the allocation benchmarks measure
// the fast path against. Do not use it in the harness hot path.
type ReferenceEngine struct {
	// Seed initialises the delay RNG.
	Seed int64
	// Delay draws per-message delays; nil means UnitDelay.
	Delay DelayFn
	// FIFO preserves per-link delivery order under random delays.
	FIFO bool
	// MaxMessages aborts the run when exceeded (0 means DefaultMaxMessages).
	MaxMessages int64
	// Trace, when non-nil, observes every delivery.
	Trace func(TraceEvent)
}

type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

type refCtx struct {
	run       *refRun
	id        NodeID
	dense     int32
	neighbors []NodeID
	now       float64
	depth     int64
}

func (c *refCtx) ID() NodeID          { return c.id }
func (c *refCtx) Neighbors() []NodeID { return c.neighbors }

func (c *refCtx) Send(to NodeID, m WireMsg) {
	neighborAt(c.neighbors, c.id, to)
	c.run.send(c, to, m)
}

type refRun struct {
	rng      *rand.Rand
	delay    DelayFn
	fifo     bool
	trace    func(TraceEvent)
	queue    refHeap
	idx      *graph.Index
	seq      int64
	lastLink map[[2]NodeID]float64
	report   *Report
}

func (rr *refRun) send(c *refCtx, to NodeID, m WireMsg) {
	d := rr.delay(rr.rng, c.id, to)
	checkDelay(d, c.id, to)
	t := c.now + d
	if rr.fifo {
		link := [2]NodeID{c.id, to}
		if last := rr.lastLink[link]; t < last {
			t = last
		}
		rr.lastLink[link] = t
	}
	rr.seq++
	heap.Push(&rr.queue, event{t: t, seq: rr.seq, depth: c.depth + 1, d: PendingDelivery{From: c.dense, To: rr.idx.MustOf(to), Msg: m}})
}

// Run executes the protocol to quiescence, mirroring EventEngine.Run with
// the unoptimised data structures.
func (e *ReferenceEngine) Run(c *graph.CSR, f Factory) (protos []Protocol, rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			protos, rep = nil, nil
			err = recoverRun(p)
		}
	}()
	start := time.Now()
	delay := e.Delay
	if delay == nil {
		delay = UnitDelay
	}
	maxMsgs := e.MaxMessages
	if maxMsgs == 0 {
		maxMsgs = DefaultMaxMessages
	}
	rr := &refRun{
		rng:      rand.New(rand.NewSource(e.Seed)),
		delay:    delay,
		fifo:     e.FIFO,
		trace:    e.Trace,
		lastLink: make(map[[2]NodeID]float64),
		report:   NewReport(),
	}
	n := c.N()
	rr.idx = c.Index()
	ids := rr.idx.IDs()
	ctxs := make([]refCtx, n)
	plist := make([]Protocol, n)
	for i := 0; i < n; i++ {
		ctxs[i] = refCtx{run: rr, id: ids[i], dense: int32(i), neighbors: c.NeighborIDs(int32(i))}
		plist[i] = f(ids[i], ctxs[i].neighbors)
	}
	for i := 0; i < n; i++ {
		plist[i].Init(&ctxs[i])
	}
	for rr.queue.Len() > 0 {
		ev := heap.Pop(&rr.queue).(event)
		if rr.report.Messages >= maxMsgs {
			return nil, nil, NewBudgetError(rr.report.Messages, maxMsgs, rr.report)
		}
		ctx := &ctxs[ev.d.To]
		ctx.now = ev.t
		ctx.depth = ev.depth
		from := ids[ev.d.From]
		rr.report.record(from, ev.d.Msg, ev.depth)
		if ev.t > rr.report.VirtualTime {
			rr.report.VirtualTime = ev.t
		}
		if rr.trace != nil {
			rr.trace(TraceEvent{Time: ev.t, Depth: ev.depth, From: from, To: ctx.id, Msg: ev.d.Msg})
		}
		plist[ev.d.To].Recv(ctx, from, ev.d.Msg)
	}
	rr.report.Finalize()
	rr.report.Wall = time.Since(start)
	return plist, rr.report, nil
}

var _ Engine = (*ReferenceEngine)(nil)
