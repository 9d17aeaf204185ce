// Package sim simulates the paper's network model: a static asynchronous
// point-to-point network of named processors that communicate only along the
// edges of an undirected graph, with no shared memory, no global clock, and
// event-driven nodes.
//
// Three in-process engines implement Engine, the package's single run
// entry point; internal/net's DistEngine runs the same contract across OS
// processes. A Protocol executes over a compiled graph snapshot
// (graph.CSR) and the final protocol states come back as a slice indexed
// by the snapshot's dense node index, the same index the engines address
// all per-node state by. Engines that can continue a checkpointed run also
// implement ResumableEngine, whose Resume returns the same result.
//
//   - EventEngine: a deterministic, seeded discrete-event simulator. With
//     UnitDelay it realises exactly the paper's time-complexity measure (the
//     longest chain of causally dependent messages, each taking one time
//     unit); with randomised delays it acts as an asynchrony adversary while
//     staying reproducible. Scheduling exploits the model's bounded delays
//     (DESIGN.md §6): both tiers host their nodes on a RoundRunner — the
//     same runner DistEngine drives, one process's share at a time. Under
//     unit delays it plays synchronous rounds; under randomised delays it
//     plays one delivery at a time off an O(1) calendar/bucket queue over
//     the (now, now+1] delivery window. Pooled runners and slice-indexed
//     FIFO clamps keep the hot path allocation-free because the
//     experiment harness runs it thousands of times per sweep.
//   - ReferenceEngine: the straightforward implementation the other
//     engines are differentially tested and benchmarked against; same
//     semantics, none of the optimisations.
//   - AsyncEngine: every node is a goroutine, every link a FIFO mailbox, so
//     message interleaving comes from the Go scheduler — true concurrency
//     for race detection and delivery-order-independence tests.
//
// Messages travel as flat wire records (wire.go): each protocol registers
// an opcode schema and sends WireMsg values — an opcode plus up to a few
// int64 payload words — so engines carry pointer-free delivery slabs, the
// report keys off opcodes, and the in-flight state of a run serialises
// byte-exactly (checkpoint.go, tracebin.go).
//
// All engines produce a Report with message counts (total, by kind, by
// round), message sizes in O(log n)-bit words, the causal depth (asynchronous
// time complexity) and, for the event engine, the virtual completion time.
package sim

import (
	"fmt"

	"mdegst/internal/graph"
)

// NodeID identifies a processor; it is the graph's node identity.
type NodeID = graph.NodeID

// Protocol is the state machine run at one node. Init fires once when the
// node starts (the algorithm "is started independently by all nodes");
// Recv fires for every delivered message — a flat WireMsg the protocol
// decodes at its boundary (see wire.go). Both may send messages through the
// Context. Engines guarantee that Init and all Recv calls for one node are
// serialised.
//
// Recv's record points into the engine's delivery memory and is valid only
// during the call: a protocol that keeps a message copies *m. It must not
// write through m, and the record stays intact while the handler sends,
// however many records it sends.
type Protocol interface {
	Init(ctx Context)
	Recv(ctx Context, from NodeID, m *WireMsg)
}

// Context is a node's interface to the network. Sends are restricted to
// graph neighbours, enforcing the point-to-point model.
type Context interface {
	// ID returns this node's identity.
	ID() NodeID
	// Neighbors returns this node's adjacent nodes in ascending order.
	// Nodes know their neighbours' identities, as the paper assumes.
	Neighbors() []NodeID
	// Out reserves the next send to a neighbouring node and returns its
	// record, zeroed, for the handler to fill in place: the send is
	// whatever the record holds when the handler calls Out again or
	// returns, and the pointer is invalid from then on. Sending to a
	// non-neighbour panics: it is a protocol bug, not a runtime
	// condition.
	Out(to NodeID) *WireMsg
}

// Send sends a copy of m to the neighbour to: Out plus one record copy,
// for call sites that build the record first.
func Send(ctx Context, to NodeID, m WireMsg) { *ctx.Out(to) = m }

// Factory creates the protocol instance for one node. The neighbour list is
// ascending and must not be modified.
type Factory func(id NodeID, neighbors []NodeID) Protocol

// Engine runs a protocol over a compiled snapshot until global quiescence
// (no messages in flight, all handlers idle) and returns the final protocol
// instance of every node plus the run report. Engines address all per-node
// and per-link state by the snapshot's dense index, and so do their
// results: protos[i] belongs to c.Index().ID(i). The snapshot is immutable
// and safe to share across runs, trials and goroutines.
type Engine interface {
	Run(c *graph.CSR, f Factory) ([]Protocol, *Report, error)
}

// TraceEvent describes one delivery for tools that render waves (for
// example the Figure 2 reproduction).
type TraceEvent struct {
	Time  float64 // virtual delivery time (event engine only)
	Depth int64   // causal depth of the delivery
	From  NodeID
	To    NodeID
	Msg   WireMsg
}

func (e TraceEvent) String() string {
	return fmt.Sprintf("t=%6.2f  %d -> %d  %s(%d words)", e.Time, e.From, e.To, e.Msg.Kind(), e.Msg.Words())
}
