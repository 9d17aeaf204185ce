package sim

import (
	"fmt"

	"mdegst/internal/graph"
)

// The process-distributed face of the unit-delay round runtime (DESIGN.md
// §9, §13). A DistRunner hosts one process's share of a partitioned run —
// the protocol instances, contexts and outboxes of the nodes a deployment
// process owns — and exposes the round as explicit phases, so a transport
// layer (internal/net) can drive barrier-separated rounds across OS
// processes connected by real sockets. Determinism rests on a canonical
// delivery order that every process computes from the same data:
//
//   - Every delivery of a round has a global rank — its position in the
//     single-process EventEngine's delivery order.
//   - A message is keyed (Parent, Pos): the rank of the delivery whose
//     handler sent it, and the send's index within that handler call.
//     EventEngine appends sends in exactly this order, so ordering a round
//     by key reconstructs its delivery order.
//   - Ranks of the next round come from a prefix sum over per-delivery
//     send counts: each process broadcasts the (rank, count) pairs of the
//     deliveries it played, and everyone scatters them into a local slab
//     and prefix-sums identically.
//
// Every batch a process sends is already one key-sorted run, and each
// parent rank's deliveries are played by exactly one process, so all of a
// parent's sends to one receiver arrive in exactly one run. The engine
// therefore splices the K runs by rank arithmetic — a counting sort over
// parent ranks, no merge tournament — and hands PlayRound a single inbox
// already in global delivery order with ranks materialised.
//
// The runner deliberately holds protocol instances for every node, not
// just owned ones: protocols implementing StateCodec let the processes
// all-gather their owned nodes' encoded states at quiescence, so each
// process finishes with the complete final state plane and extracts the
// identical tree and report the simulator would.

// OutMsg is one cross-process delivery record of the distributed round
// plane: the canonical merge key (Parent, Pos), dense endpoints and the
// flat wire record. It is pointer-free, so outboxes are plain slabs and the byte form on the socket mirrors the in-memory form.
type OutMsg struct {
	Parent int64 // global rank of the sending delivery (dense index for Init sends)
	Pos    int32 // index of this send within the sending handler call
	From   int32 // dense index of the sender
	To     int32 // dense index of the destination
	Msg    WireMsg
}

// KeyLess orders OutMsgs by the canonical (Parent, Pos) key. Keys are
// globally unique within a round, so the order is total.
func (m OutMsg) KeyLess(o OutMsg) bool {
	if m.Parent != o.Parent {
		return m.Parent < o.Parent
	}
	return m.Pos < o.Pos
}

// RankCount reports the send count of one played delivery at its global
// rank. Each barrier broadcast carries one entry per delivery the process played, in
// ascending rank order.
type RankCount struct {
	Rank  int64
	Count int64
}

// distCtx is the Context handed to protocols on the distributed round
// plane: rank is the global rank of the delivery
// being processed (the dense node index while Init runs), sends counts the
// handler's sends so far.
type distCtx struct {
	r         *DistRunner
	id        NodeID
	dense     int32
	neighbors []NodeID
	nbrDense  []int32
	rank      int64
	sends     int32
}

func (c *distCtx) ID() NodeID          { return c.id }
func (c *distCtx) Neighbors() []NodeID { return c.neighbors }

func (c *distCtx) Send(to NodeID, m WireMsg) {
	ni := neighborIndex(c.neighbors, to)
	if ni < 0 {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbour %d", c.id, to))
	}
	r := c.r
	toDense := c.nbrDense[ni]
	dst := r.owner[toDense]
	r.out[dst] = append(r.out[dst], OutMsg{
		Parent: c.rank,
		Pos:    c.sends,
		From:   c.dense,
		To:     toDense,
		Msg:    m,
	})
	c.sends++
}

// Logf is a no-op: the distributed plane does not support tracing (a
// global-order trace would serialise the processes; use the simulator).
func (c *distCtx) Logf(string, ...any) {}

// DistRunner drives one process's part of a partitioned unit-delay run.
// The caller (the transport engine) owns the barrier: it exchanges the
// outboxes and rank counts between phases, computes the next round's rank
// offsets by prefix sum, and hands the merged incoming streams back to
// PlayRound. All methods must be called from one goroutine.
type DistRunner struct {
	c      *graph.CSR
	owner  []int32 // dense node -> owning process
	self   int32
	nprocs int
	ids    []NodeID
	protos []Protocol // every node; only owned ones execute here
	owned  []int32    // dense indices owned by self, ascending
	ctxs   []distCtx  // one per owned node
	local  []int32    // dense -> index into owned/ctxs (-1 if not owned)
	out    [][]OutMsg // per destination process, refilled each phase
	counts []RankCount
	sent   []int64 // dense sender slab lent to the report's fast path
	report *Report
}

// DistScratch recycles a runner's slabs across one engine's sequential
// runs. The transport engine owns one, seeds each run's runner from it
// with NewDistRunnerScratch, and harvests it back with Release when the
// run ends; the outbox capacities grown during one run then serve the
// next, so a live mesh's steady state appends into full-size slabs
// instead of re-growing them from nil every run. Zero value is ready.
type DistScratch struct {
	protos []Protocol
	local  []int32
	owned  []int32
	ctxs   []distCtx
	out    [][]OutMsg
	counts []RankCount
	sent   []int64
	kr     krSlab
}

// NewDistRunner builds the process's share of a run: protocol instances
// for every node (owned ones will execute; the rest exist to receive
// all-gathered final states), contexts and outboxes for the owned range.
// owner maps every dense node to its owning process in [0, nprocs).
func NewDistRunner(c *graph.CSR, owner []int32, nprocs, self int, f Factory) *DistRunner {
	return NewDistRunnerScratch(c, owner, nprocs, self, f, nil)
}

// NewDistRunnerScratch is NewDistRunner seeded from recycled slabs (nil
// sc allocates fresh ones). Every harvested slab is rewritten in full
// before use, so runs stay independent; only capacity carries over.
func NewDistRunnerScratch(c *graph.CSR, owner []int32, nprocs, self int, f Factory, sc *DistScratch) *DistRunner {
	n := c.N()
	ids := c.Index().IDs()
	if sc == nil {
		sc = &DistScratch{}
	}
	r := &DistRunner{
		c:      c,
		owner:  owner,
		self:   int32(self),
		nprocs: nprocs,
		ids:    ids,
		protos: growCap(sc.protos, n),
		local:  growCap(sc.local, n),
		owned:  sc.owned[:0],
		counts: sc.counts[:0],
		report: newReport(),
	}
	if cap(sc.out) >= nprocs {
		r.out = sc.out[:nprocs]
		for d := range r.out {
			r.out[d] = r.out[d][:0]
		}
	} else {
		r.out = make([][]OutMsg, nprocs)
		copy(r.out, sc.out) // keep whatever per-destination capacity exists
	}
	for v := 0; v < n; v++ {
		r.local[v] = -1
		r.protos[v] = f(ids[v], c.NeighborIDs(int32(v)))
		if owner[v] == r.self {
			r.owned = append(r.owned, int32(v))
		}
	}
	r.ctxs = growCap(sc.ctxs, len(r.owned))
	for li, v := range r.owned {
		r.local[v] = int32(li)
		r.ctxs[li] = distCtx{
			r:         r,
			id:        ids[v],
			dense:     v,
			neighbors: c.NeighborIDs(v),
			nbrDense:  c.Neighbors(v),
		}
	}
	// Arm the report's dense sender slab: PlayRound records through the
	// same memoised scalar + dense-slab path the round engine uses
	// (recordFast), so the per-delivery map ops of record() never run.
	// The folds at capture/merge points reconstruct identical maps.
	r.sent = growCap(sc.sent, n)
	for i := range r.sent {
		r.sent[i] = 0
	}
	r.report.adoptDenseSent(r.sent, ids)
	r.report.adoptKR(&sc.kr)
	return r
}

// growCap returns s resized to length n, reallocating only when the
// recycled capacity is short. Contents are unspecified; callers rewrite.
func growCap[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Release hands the runner's slabs back to sc for the engine's next run.
// The protocol slice is harvested too: results that alias it (Protos)
// stay intact until the next run constructs a runner from sc, which is
// exactly the validity window the distributed engine's Run documents.
func (r *DistRunner) Release(sc *DistScratch) {
	sc.protos = r.protos
	sc.local = r.local
	sc.owned = r.owned
	sc.ctxs = r.ctxs
	sc.out = r.out
	sc.counts = r.counts
	sc.sent = r.sent
}

// RearmFast re-arms the report's dense sender slab after a mid-run
// counter capture folded and detached it (the periodic checkpoint
// cadence): the folded counts live on in the SentBy map, so the slab
// restarts at zero and accumulates only the deliveries since the commit.
func (r *DistRunner) RearmFast() {
	for i := range r.sent {
		r.sent[i] = 0
	}
	r.report.adoptDenseSent(r.sent, r.ids)
}

// N returns the node count of the snapshot.
func (r *DistRunner) N() int { return r.c.N() }

// Owned returns the dense indices this process owns, ascending. Shared; do
// not modify.
func (r *DistRunner) Owned() []int32 { return r.owned }

// Owns reports whether this process owns dense node v.
func (r *DistRunner) Owns(v int32) bool { return r.owner[v] == r.self }

// Report returns the process's share of the run accounting. Merge the
// processes' reports with MergeParallel at quiescence.
func (r *DistRunner) Report() *Report { return r.report }

// Protos returns the per-dense-node protocol instances. Owned entries hold
// live state; the rest are factory-fresh until final states are decoded
// into them. Shared; do not modify.
func (r *DistRunner) Protos() []Protocol { return r.protos }

func (r *DistRunner) resetPhase() {
	for d := range r.out {
		r.out[d] = r.out[d][:0]
	}
	r.counts = r.counts[:0]
}

// PlayInit runs Init for the owned nodes in ascending dense order. Sends
// get key (dense index, pos) and the counts report one entry per owned
// node at rank = dense index — globally the Init rank space is [0, N).
func (r *DistRunner) PlayInit() {
	r.resetPhase()
	for li, v := range r.owned {
		ctx := &r.ctxs[li]
		ctx.rank = int64(v)
		ctx.sends = 0
		r.protos[v].Init(ctx)
		r.counts = append(r.counts, RankCount{Rank: int64(v), Count: int64(ctx.sends)})
	}
}

// PlayRound delivers one round to the owned nodes. The engine hands one
// spliced inbox — already in canonical global delivery order, with each
// record's Parent field materialised to the delivery's global rank
// (off[Parent] + Pos, computed during the splice) — so delivery is a
// single sequential walk, and the handler's sends refill the outboxes
// keyed by that rank. round is the global round number (depth
// accounting). The inbox is consumed before the phase's outboxes reset,
// so the engine may alias it to reusable scratch.
func (r *DistRunner) PlayRound(round int64, inbox []OutMsg) {
	r.resetPhase()
	for i := range inbox {
		d := &inbox[i]
		li := r.local[d.To]
		if li < 0 {
			panic(fmt.Sprintf("sim: delivery for dense node %d not owned by process %d", d.To, r.self))
		}
		ctx := &r.ctxs[li]
		ctx.rank = d.Parent
		ctx.sends = 0
		r.report.recordFast(d.From, &d.Msg, round)
		r.protos[d.To].Recv(ctx, r.ids[d.From], d.Msg)
		r.counts = append(r.counts, RankCount{Rank: ctx.rank, Count: int64(ctx.sends)})
	}
}

// Idle clears the phase's counts and outboxes for a process that plays no
// deliveries while a peer runs solo rounds (DESIGN.md §13): the sends of
// the last round it played were delivered at the barrier that closed it.
func (r *DistRunner) Idle() { r.resetPhase() }

// Outbox returns the phase's deliveries destined to process dst, sorted by
// key. Valid until the next Play phase; the caller encodes or merges it
// before then.
func (r *DistRunner) Outbox(dst int) []OutMsg { return r.out[dst] }

// Counts returns the (rank, send count) pairs of the deliveries played
// this phase, ascending by rank — one entry per played delivery, including
// zero-send ones (the barrier cross-checks that the union over processes
// covers the whole rank space). Valid until the next Play phase.
func (r *DistRunner) Counts() []RankCount { return r.counts }

// EncodeOwnedState serialises the state of owned dense node v with the
// given opcode encoder (the transport's canonical wire table). The
// protocol must implement StateCodec.
func (r *DistRunner) EncodeOwnedState(v int32, enc func(Op) uint64) ([]byte, error) {
	return EncodeProtocolState(r.protos[v], enc)
}

// AppendOwnedState is EncodeOwnedState into a caller-owned arena: the
// state bytes append to buf and the grown buffer returns, so the engine's
// all-gather encodes every owned state into one reusable slab.
func (r *DistRunner) AppendOwnedState(buf []byte, v int32, enc func(Op) uint64) ([]byte, error) {
	return AppendProtocolState(buf, r.protos[v], enc)
}

// DecodeStateInto decodes a peer's state blob into dense node v's
// instance — the receiving half of the final-state all-gather and of
// checkpoint assembly.
func (r *DistRunner) DecodeStateInto(v int32, blob []byte, dec func(uint64) (Op, error)) error {
	return DecodeProtocolState(r.protos[v], blob, dec)
}

// EncodeProtocolState serialises one protocol's state as a varint word
// stream using the given opcode encoder (nil keeps process-local opcodes).
// The protocol must implement StateCodec.
func EncodeProtocolState(p Protocol, enc func(Op) uint64) ([]byte, error) {
	return AppendProtocolState(nil, p, enc)
}

// AppendProtocolState is EncodeProtocolState appending to buf, so callers
// encoding many states can amortise into one arena.
func AppendProtocolState(buf []byte, p Protocol, enc func(Op) uint64) ([]byte, error) {
	sc, ok := p.(StateCodec)
	if !ok {
		return nil, &CheckpointError{Reason: fmt.Sprintf("protocol %T does not implement StateCodec", p)}
	}
	e := StateEncoder{opEnc: enc, buf: buf}
	sc.EncodeState(&e)
	return e.buf, nil
}

// DecodeProtocolState mirrors EncodeProtocolState, enforcing the same
// exact-consumption contract as checkpoint resume.
func DecodeProtocolState(p Protocol, blob []byte, dec func(uint64) (Op, error)) error {
	sc, ok := p.(StateCodec)
	if !ok {
		return &CheckpointError{Reason: fmt.Sprintf("protocol %T does not implement StateCodec", p)}
	}
	d := StateDecoder{buf: blob, opDec: dec}
	if err := sc.DecodeState(&d); err != nil {
		return err
	}
	if d.err != nil {
		return d.err
	}
	if d.at != len(d.buf) {
		return &CheckpointError{Reason: fmt.Sprintf("node state: %d trailing bytes", len(d.buf)-d.at)}
	}
	return nil
}

// --- exported checkpoint plumbing for the network plane -----------------

// CaptureCounters freezes r's counters into ck (sorted, deterministic) —
// the exported form of the engines' capture step, used by the network
// plane to ship per-process report shares and assemble checkpoint files.
func (ck *Checkpoint) CaptureCounters(r *Report) { ck.captureReport(r) }

// RestoreCounters loads ck's counters into a fresh report (set, not add).
func (ck *Checkpoint) RestoreCounters(r *Report) { ck.restoreReport(r) }

// EncodeStates freezes every protocol's state into ck, binding the
// checkpoint's opcode table; protocols must implement StateCodec. The
// order (node 0 first) fixes the file's opcode numbering, so assembling a
// checkpoint from decoded states reproduces the in-process file byte for
// byte.
func (ck *Checkpoint) EncodeStates(protos []Protocol) error { return ck.encodeStates(protos) }

// RestoreStates decodes ck's per-node states into the instances.
func (ck *Checkpoint) RestoreStates(protos []Protocol) error { return ck.decodeStates(protos) }

// ValidateAgainst checks ck's snapshot fingerprint and pending-slab
// endpoint ranges against a compiled snapshot before resuming.
func (ck *Checkpoint) ValidateAgainst(c *graph.CSR) error { return ck.validateAgainst(c) }

// Finalize materialises the public breakdown maps — engines call this once
// after merging process reports. Idempotent.
func (r *Report) Finalize() { r.finalize() }
