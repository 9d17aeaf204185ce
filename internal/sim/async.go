package sim

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"mdegst/internal/graph"
)

// AsyncEngine runs every node as a goroutine with an unbounded FIFO mailbox.
// Message interleaving across links is decided by the Go scheduler (true
// asynchrony); per-link FIFO order is preserved, matching the model's
// communication channels.
//
// Mailboxes live in a slice addressed by the snapshot's dense node index, so
// sends touch no map.
//
// Termination is global quiescence: a counter tracks in-flight plus
// in-processing messages; handlers only send while processing, so when the
// counter reaches zero no further message can ever be created.
type AsyncEngine struct{}

type delivery struct {
	from  int32 // the sender's dense index
	msg   WireMsg
	depth int64
}

// mailbox is an unbounded FIFO queue; unbounded so that no protocol can
// deadlock on backpressure (the model's channels have no capacity bound).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []delivery
	closed bool
}

func newMailbox() *mailbox {
	mb := &mailbox{}
	mb.cond = sync.NewCond(&mb.mu)
	return mb
}

func (mb *mailbox) push(d delivery) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, d)
	mb.mu.Unlock()
	mb.cond.Signal()
}

func (mb *mailbox) pop() (delivery, bool) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	for len(mb.queue) == 0 && !mb.closed {
		mb.cond.Wait()
	}
	if len(mb.queue) == 0 {
		return delivery{}, false
	}
	d := mb.queue[0]
	mb.queue = mb.queue[1:]
	return d, true
}

func (mb *mailbox) close() {
	mb.mu.Lock()
	mb.closed = true
	mb.mu.Unlock()
	mb.cond.Broadcast()
}

type asyncRun struct {
	wg       sync.WaitGroup // counts pending inits + unprocessed messages
	boxes    []*mailbox     // dense node index -> mailbox
	mu       sync.Mutex     // guards report
	report   *Report
	panicVal atomic.Value // the first node panic, as a nodePanic
}

// nodePanic wraps a node's panic value, so every value panicVal stores
// has one type.
type nodePanic struct{ v any }

// count accounts one delivery on the shared report.
func (run *asyncRun) count(d *delivery) {
	run.mu.Lock()
	defer run.mu.Unlock()
	run.report.countPlay(1, d.depth)
	run.report.countMsg(d.from, &d.msg)
}

type asyncCtx struct {
	run       *asyncRun
	id        NodeID
	dense     int32
	neighbors []NodeID
	nbrDense  []int32
	depth     int64 // causal depth of the message being processed
	staged    int   // neighbour position of the staged send; -1: none
	out       WireMsg
}

func (c *asyncCtx) ID() NodeID          { return c.id }
func (c *asyncCtx) Neighbors() []NodeID { return c.neighbors }

// Out posts the previously staged send and stages this one, so the sends
// reach their mailboxes in send order.
func (c *asyncCtx) Out(to NodeID) *WireMsg {
	ni := neighborAt(c.neighbors, c.id, to)
	c.flush()
	c.staged, c.out = ni, WireMsg{}
	return &c.out
}

// flush posts the staged send, if any; the node's loop calls it when a
// handler returns.
func (c *asyncCtx) flush() {
	if c.staged >= 0 {
		c.run.wg.Add(1)
		c.run.boxes[c.nbrDense[c.staged]].push(delivery{from: c.dense, msg: c.out, depth: c.depth + 1})
		c.staged = -1
	}
}

// Run executes the protocol to quiescence using real goroutines.
func (e *AsyncEngine) Run(c *graph.CSR, f Factory) ([]Protocol, *Report, error) {
	start := time.Now()
	n := c.N()
	ids := c.Index().IDs()
	run := &asyncRun{
		boxes:  make([]*mailbox, n),
		report: newRunReport(new(counters), ids),
	}
	plist := make([]Protocol, n)
	ctxs := make([]asyncCtx, n)
	for i := 0; i < n; i++ {
		di := int32(i)
		run.boxes[i] = newMailbox()
		ctxs[i] = asyncCtx{
			run:       run,
			id:        ids[i],
			dense:     di,
			neighbors: c.NeighborIDs(di),
			nbrDense:  c.Neighbors(di),
			staged:    -1,
		}
		plist[i] = f(ids[i], ctxs[i].neighbors)
	}

	// Pre-count one unit per node so the quiescence counter cannot reach
	// zero before every Init has run.
	run.wg.Add(n)
	var loops sync.WaitGroup
	for i := 0; i < n; i++ {
		loops.Add(1)
		go func(i int) {
			defer loops.Done()
			ctx := &ctxs[i]
			proto := plist[i]
			// A panicking node is marked dead but keeps draining its
			// mailbox, so the quiescence counter still reaches zero and
			// the panic is reported instead of hanging the run. A record
			// the report cannot count fails the run with its *WireError.
			dead := false
			safely := func(fn func()) {
				defer func() {
					if p := recover(); p != nil {
						if _, ok := p.(*WireError); !ok {
							p = fmt.Sprintf("node %d: %v", ctx.id, p)
						}
						run.panicVal.CompareAndSwap(nil, nodePanic{p})
						dead = true
					}
				}()
				fn()
			}
			safely(func() { proto.Init(ctx) })
			ctx.flush()
			run.wg.Done()
			var d delivery // the record Recv reads in place
			for {
				var ok bool
				if d, ok = run.boxes[i].pop(); !ok {
					return
				}
				if !dead {
					ctx.depth = d.depth
					safely(func() {
						run.count(&d)
						proto.Recv(ctx, ids[d.from], &d.msg)
					})
					ctx.flush()
				}
				run.wg.Done()
			}
		}(i)
	}

	run.wg.Wait()
	for _, mb := range run.boxes {
		mb.close()
	}
	loops.Wait()
	if p := run.panicVal.Load(); p != nil {
		return nil, nil, PanicError(p.(nodePanic).v)
	}
	run.report.Finalize()
	run.report.Wall = time.Since(start)
	return plist, run.report, nil
}

var _ Engine = (*AsyncEngine)(nil)
