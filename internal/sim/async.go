package sim

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"mdegst/internal/graph"
)

// AsyncEngine runs every node as a goroutine with an unbounded FIFO mailbox.
// Message interleaving across links is decided by the Go scheduler (true
// asynchrony); per-link FIFO order is preserved, matching the model's
// communication channels. Optional jitter inserts random per-link forwarding
// delays to widen the explored interleavings.
//
// Mailboxes live in a slice addressed by the snapshot's dense node index and
// jitter forwarders in a slice addressed by the snapshot's directed
// half-edge index, so sends touch no map.
//
// Termination is global quiescence: a counter tracks in-flight plus
// in-processing messages; handlers only send while processing, so when the
// counter reaches zero no further message can ever be created.
type AsyncEngine struct {
	// Seed initialises the jitter RNG.
	Seed int64
	// Jitter, when positive, delays each hop by a random duration in
	// (0, Jitter], applied by a per-directed-link forwarder that preserves
	// link FIFO order.
	Jitter time.Duration
}

type delivery struct {
	from  NodeID
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
	links    []*mailbox     // directed half-edge index -> forwarder, nil when no jitter
	mu       sync.Mutex     // guards report maps
	report   *Report
	panicVal atomic.Value
}

type asyncCtx struct {
	run       *asyncRun
	id        NodeID
	neighbors []NodeID
	nbrDense  []int32
	linkBase  int32 // this node's first directed half-edge index
	depth     int64 // causal depth of the message being processed
}

func (c *asyncCtx) ID() NodeID          { return c.id }
func (c *asyncCtx) Neighbors() []NodeID { return c.neighbors }

func (c *asyncCtx) Send(to NodeID, m WireMsg) {
	ni := neighborIndex(c.neighbors, to)
	if ni < 0 {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbour %d", c.id, to))
	}
	r := c.run
	r.wg.Add(1)
	d := delivery{from: c.id, msg: m, depth: c.depth + 1}
	if r.links != nil {
		r.links[c.linkBase+int32(ni)].push(d)
		return
	}
	r.boxes[c.nbrDense[ni]].push(d)
}

func (c *asyncCtx) Logf(string, ...any) {}

// Run executes the protocol to quiescence using real goroutines.
func (e *AsyncEngine) Run(c *graph.CSR, f Factory) ([]Protocol, *Report, error) {
	start := time.Now()
	n := c.N()
	ids := c.Index().IDs()
	run := &asyncRun{
		boxes:  make([]*mailbox, n),
		report: newReport(),
	}
	plist := make([]Protocol, n)
	ctxs := make([]asyncCtx, n)
	for i := 0; i < n; i++ {
		di := int32(i)
		run.boxes[i] = newMailbox()
		ctxs[i] = asyncCtx{
			run:       run,
			id:        ids[i],
			neighbors: c.NeighborIDs(di),
			nbrDense:  c.Neighbors(di),
			linkBase:  c.HalfEdge(di, 0),
		}
		plist[i] = f(ids[i], ctxs[i].neighbors)
	}

	var forwarders sync.WaitGroup
	if e.Jitter > 0 {
		run.links = make([]*mailbox, c.HalfEdges())
		for he := range run.links {
			run.links[he] = newMailbox()
		}
		var seed atomic.Int64
		seed.Store(e.Seed)
		for i := 0; i < n; i++ {
			for ni, dst := range c.Neighbors(int32(i)) {
				he := c.HalfEdge(int32(i), ni)
				forwarders.Add(1)
				go func(box, dest *mailbox) {
					defer forwarders.Done()
					rng := rand.New(rand.NewSource(seed.Add(1)))
					for {
						d, ok := box.pop()
						if !ok {
							return
						}
						time.Sleep(time.Duration(rng.Int63n(int64(e.Jitter))) + 1)
						dest.push(d)
					}
				}(run.links[he], run.boxes[dst])
			}
		}
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
			// the panic is reported instead of hanging the run.
			dead := false
			safely := func(fn func()) {
				defer func() {
					if p := recover(); p != nil {
						run.panicVal.CompareAndSwap(nil, fmt.Sprintf("node %d: %v", ctx.id, p))
						dead = true
					}
				}()
				fn()
			}
			safely(func() { proto.Init(ctx) })
			run.wg.Done()
			for {
				d, ok := run.boxes[i].pop()
				if !ok {
					return
				}
				if !dead {
					ctx.depth = d.depth
					run.mu.Lock()
					run.report.record(d.from, d.msg, d.depth)
					run.mu.Unlock()
					safely(func() { proto.Recv(ctx, d.from, d.msg) })
				}
				run.wg.Done()
			}
		}(i)
	}

	run.wg.Wait()
	for _, mb := range run.boxes {
		mb.close()
	}
	for _, mb := range run.links {
		mb.close()
	}
	loops.Wait()
	forwarders.Wait()
	if p := run.panicVal.Load(); p != nil {
		return nil, nil, fmt.Errorf("sim: protocol panic: %v", p)
	}
	run.report.finalize()
	run.report.Wall = time.Since(start)
	return plist, run.report, nil
}

var _ Engine = (*AsyncEngine)(nil)
