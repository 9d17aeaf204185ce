package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mdegst/internal/graph"
)

// The shard-partitioned runtime (DESIGN.md §7, §12). ShardedEngine splits
// the per-node state plane of a run — protocol instances, contexts, FIFO
// clamp intervals, delivery queues — into shards that each own one slice of
// the snapshot's dense node range, per a graph.Partition. The point is
// multi-core execution of a *single* run (the experiment harness already
// parallelises across trials): under the paper's unit-delay model the
// (0, 1] delay bound is a conservative lookahead-1 window, so all
// deliveries of one round are mutually independent and shards can process
// their own nodes concurrently, exchanging cross-shard messages through a
// single-copy scatter computed at the round barrier.
//
// Determinism is exact, not statistical: an N-shard run is
// delivery-trace-equivalent to the 1-shard engine (EventEngine) and to
// ReferenceEngine — same per-node Recv sequences, same report, same final
// protocol states — because the canonical order reconstructs the
// single-engine global delivery order from data that does not depend on
// goroutine scheduling:
//
//   - Every delivery of round r has a global rank: its position in the
//     round's delivery list as the 1-shard engine would order it.
//   - A message is keyed (parent rank, send position): the rank of the
//     delivery whose handler sent it, and the index of the send within
//     that handler call. The 1-shard engine appends sends in exactly
//     (rank, position) order, so sorting round r+1 by key *is* the
//     1-shard order.
//   - At the barrier one prefix scan over the per-delivery,
//     per-destination send counts turns the keys into placements: the
//     global rank of every queued message (off[parent] + pos) and its
//     exact slot in its destination shard's inbox. Senders then scatter
//     each record once, directly into place — every inbox is its shard's
//     rank-sorted subsequence of the global order, so delivering a round
//     is a sequential walk of shard-local memory. No K-way merge, no
//     in-place rank rewrite, no second copy.
//
// Under randomised delays there is no positive lower bound on a delay, so
// the model offers no lookahead and window-parallel execution cannot be
// conservative. The sharded wheel path therefore keeps the partitioned
// ownership structure — per-shard calendar wheels, clamp slabs and reports
// — but executes deliveries in the global (time, sequence) order by
// popping the minimum across the shard wheels; exact, not parallel.

// ShardedEngine executes a protocol over a snapshot with its state plane
// partitioned into shards. The zero value of every field is usable;
// Shards <= 1 degenerates to EventEngine (the 1-shard engine the N-shard
// runs are trace-equivalent to).
type ShardedEngine struct {
	// Shards is the number of state shards. It is clamped to the node
	// count; values <= 1 run the single-shard event engine.
	Shards int
	// Workers bounds how many OS-level workers drive the shard phases of
	// the unit-delay round path; 0 means min(Shards, GOMAXPROCS). On a
	// single-core machine the phases run inline on one goroutine — same
	// results by construction, none of the handoff cost.
	Workers int
	// Partition, when non-nil, fixes the shard assignment (it must
	// Validate against the snapshot, and Shards, if set, must agree with
	// it). Nil means a contiguous partition computed per run; precompute
	// with graph.PartitionContiguous or graph.PartitionBFS to share the
	// assignment across runs.
	Partition *graph.Partition
	// Seed initialises the delay RNG (randomised-delay path only).
	Seed int64
	// Delay draws per-message delays; nil means UnitDelay.
	Delay DelayFn
	// FIFO preserves per-link delivery order under random delays.
	FIFO bool
	// MaxMessages aborts the run when exceeded (0 means
	// DefaultMaxMessages). The sharded round path checks the cap at round
	// barriers, so the abort lands at the end of the window that crossed
	// the cap rather than mid-round.
	MaxMessages int64
	// Trace, when non-nil, observes every delivery and Logf note in the
	// exact global delivery order. Tracing forces the round path through
	// its serial schedule (one goroutine merging the shards' rank-sorted
	// inboxes) so events fire at their exact global positions.
	Trace func(TraceEvent)
	// Checkpoint, when non-nil, arms barrier checkpointing exactly as on
	// EventEngine: the sharded round path stops at the barrier after
	// Checkpoint.Round and writes the frozen run (the checkpoint is
	// engine-agnostic — a sharded checkpoint resumes on the unsharded
	// engine and vice versa).
	Checkpoint *CheckpointSpec
	// Stats, when non-nil, accumulates the per-phase wall-time breakdown
	// of the unit-delay round path across the run (deliver/scan/scatter
	// walls, barrier-wait imbalance, park counts — see PhaseStats). Nil
	// keeps the hot path free of clock reads.
	Stats *PhaseStats

	// cache holds the last run's round-path scratch on the engine itself.
	// The shared pool is a GC victim: a grid-1M run allocates enough to
	// trigger a collection per run, which empties the pool and forces the
	// next run to re-grow ~100MB of slabs — the engine-held reference
	// survives collections for as long as the engine does, so replaying
	// runs on one engine is allocation-free regardless of GC pressure.
	// Swapped atomically: racing runs on one engine degrade to the pool,
	// never to a shared scratch.
	cache atomic.Pointer[shardedScratch]
}

// shardDelivery is one queued message of the sharded round path: a flat
// record (rank, endpoints, WireMsg) with no pointers, so the staging and
// inbox slabs are plain arenas — refilled by append, consumed by indexed
// reads, invisible to the GC.
//
// rank is materialised in two steps. When the send is appended to its
// source shard's staging stream, rank holds the global rank of the
// *sending* delivery (its dense node index during Init) and pos the send's
// index within that handler call — the canonical (parent rank, position)
// key. The scatter phase materialises the delivery's own global rank
// (off[parent] + pos) into the record as it lands at its final slot in the
// destination inbox; from then on ordering, delivery accounting and
// checkpointing all read the single int64.
type shardDelivery struct {
	rank      int64
	pos       int32 // index of this send within the sending handler call (dead after the scatter)
	fromDense int32
	toLocal   int32 // index of the destination in its owner shard's node list
	from      NodeID
	msg       WireMsg
}

// shardRoundCtx is the Context handed to protocols on the sharded round
// path. rank is the global rank of the delivery being processed (the dense
// node index while Init runs), sends counts the handler's sends so far, and
// row is the delivery's stride-S row of the shared count plane — Send
// tallies each send under its destination shard there, which is everything
// the barrier scan needs to place every message of the next round.
type shardRoundCtx struct {
	shard     *roundShard
	id        NodeID
	dense     int32
	neighbors []NodeID
	nbrDense  []int32
	rank      int64
	sends     int32
	row       []int32
}

func (c *shardRoundCtx) ID() NodeID          { return c.id }
func (c *shardRoundCtx) Neighbors() []NodeID { return c.neighbors }

func (c *shardRoundCtx) Send(to NodeID, m WireMsg) {
	ni := neighborIndex(c.neighbors, to)
	if ni < 0 {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbour %d", c.id, to))
	}
	sh := c.shard
	r := sh.run
	toDense := c.nbrDense[ni]
	loc := r.loc[toDense] // owner and local index in one load
	dst := int32(loc >> 32)
	r.sent[c.dense]++ // disjoint across shards: only c's owner writes c.dense
	c.row[dst]++      // per-destination count at this delivery's rank
	sh.stage[dst] = append(sh.stage[dst], shardDelivery{
		rank:      c.rank,
		pos:       c.sends,
		fromDense: c.dense,
		toLocal:   int32(loc),
		from:      c.id,
		msg:       m,
	})
	c.sends++
}

func (c *shardRoundCtx) Logf(format string, args ...any) {
	// Non-nil trace implies the serial schedule, so emitting inline keeps
	// the exact global order.
	if r := c.shard.run; r.trace != nil {
		r.trace(TraceEvent{Time: float64(r.round), Depth: r.round, To: c.id, Note: fmt.Sprintf(format, args...)})
	}
}

// roundShard owns one slice of the node range on the unit-delay path: the
// protocol instances and contexts of its nodes, its own report, one staging
// stream per destination shard (filled by its handlers' sends, key-sorted
// by construction) and the inbox arena the next round's deliveries are
// scattered into. The inbox is the shard's rank-sorted subsequence of the
// global delivery order — senders place each record at its exact merged
// position — so a round is delivered by walking it start to end. The arena
// is sized (and so first-touched) by the worker that owns the shard and is
// reused round over round: the steady state allocates nothing.
type roundShard struct {
	run    *shardedRoundRun
	index  int32
	nodes  []int32 // dense indices owned, ascending
	ctxs   []shardRoundCtx
	protos []Protocol
	report *Report
	stage  [][]shardDelivery // [destination shard]: staged sends, key-sorted
	inbox  []shardDelivery   // next/current round, rank-sorted, scatter-filled
	kr     krSlab            // (round, opcode) counters lent to report
	// Pad shards apart: each is written by exactly one worker per phase
	// (append cursors, report counters), and without padding two shards'
	// hot words can share a cache line and ping-pong between cores.
	_ [64]byte
}

// sizeInbox resizes the inbox arena for the next window. Growth
// first-touches the new pages on the calling worker — sizeInboxes routes
// each shard's resize to its owning worker — and once warm this is a pure
// reslice. Growth doubles the capacity: a flood wavefront widens a little
// every window, and exact-fit growth would reallocate the arena once per
// window for the whole growing half of the wave (O(peak × windows) bytes
// on a cold run) instead of O(peak).
func (sh *roundShard) sizeInbox(need int64) {
	if int64(cap(sh.inbox)) < need {
		newCap := 2 * int64(cap(sh.inbox))
		if newCap < need {
			newCap = need
		}
		sh.inbox = make([]shardDelivery, need, newCap)
	} else {
		sh.inbox = sh.inbox[:need]
	}
}

// shardedRoundRun is the state shared by all shards of one round-path run.
// Everything here is either immutable during a phase (owner/local/ids,
// off, stride, round) or written at disjoint indices (cntv rows, inbox
// slots, sent), so the parallel phases need no locks; the per-phase
// barrier publishes updates.
type shardedRoundRun struct {
	shards  []roundShard
	owner   []int32 // dense node -> shard
	local   []int32 // dense node -> index in its shard's node list
	loc     []int64 // dense node -> owner<<32 | local, one load on the send path
	sent    []int64 // dense node -> messages sent, written only by the owner shard
	ids     []NodeID
	trace   func(TraceEvent)
	round   int64
	workers int
	stride  int // shard count: the row width of the count plane
	// off maps a queued delivery's (parent rank, pos) key to its global
	// rank: rank = off[parent] + pos. cntv is the stride-S count plane:
	// while a round plays, cntv[rank*S+d] collects how many sends delivery
	// rank made to shard d (each row written only by the rank's owner);
	// the barrier scan then rewrites the rows in place into
	// per-destination exclusive prefixes — each parent's base slot in each
	// destination inbox — computing off and the next inbox sizes (dstTot)
	// in the same pass. Entries are 32-bit: a window beyond 2^31
	// deliveries is unrepresentable anyway (its slabs alone would exceed
	// 100 GB).
	off    []int64
	cntv   []int32
	dstTot []int64
	// chunkTot holds the per-chunk totals of the parallel scan, stride
	// S+1: S per-destination totals plus the rank total.
	chunkTot []int64
	cursors  []int // serial-schedule merge cursors, one per shard
	stats    *PhaseStats
	clocks   []workerClock // per-worker busy ns, armed with stats
	// statsWall0 snapshots the armed stats' phase-wall sum at run start so
	// release can fold this run's barrier-wait delta without mixing in
	// earlier runs accumulated on the same PhaseStats.
	statsWall0 time.Duration
}

// playInit runs Init for this shard's nodes in ascending dense order,
// tallying each node's sends per destination under its dense index — the
// Init "rank". Globally the keys (dense index, pos) sort to exactly the
// 1-shard Init order, whatever the shard interleaving.
func (sh *roundShard) playInit() {
	r := sh.run
	S := r.stride
	for li := range sh.nodes {
		ctx := &sh.ctxs[li]
		ctx.rank = int64(sh.nodes[li])
		ctx.sends = 0
		base := int(ctx.rank) * S
		row := r.cntv[base : base+S]
		clear(row)
		ctx.row = row
		sh.protos[li].Init(ctx)
	}
}

// playRound processes this shard's share of the current round: a
// sequential walk of its own inbox, already in global rank order because
// the scatter placed every record at its exact merged position. Per-
// delivery accounting goes to the shard's own report; send counts land in
// the delivery's row of the shared count plane (disjoint across shards by
// construction — every rank has exactly one owner).
func (sh *roundShard) playRound() {
	r := sh.run
	S := r.stride
	round := r.round
	for i := range sh.inbox {
		d := &sh.inbox[i]
		ctx := &sh.ctxs[d.toLocal]
		ctx.rank = d.rank
		ctx.sends = 0
		base := int(d.rank) * S
		row := r.cntv[base : base+S]
		clear(row)
		ctx.row = row
		sh.report.recordKR(&d.msg, round)
		sh.protos[d.toLocal].Recv(ctx, d.from, d.msg)
	}
}

// scatter drains this shard's staging streams into the destination
// inboxes, writing each record once at its final merged position. For a
// record with key (parent, pos) bound for shard d, the barrier scan left
// the parent's base slot at cntv[parent*S+d]; the record's offset from
// that base is its run index among the parent's sends to d, which the walk
// derives for free because streams are key-sorted (a counter reset at
// parent boundaries). The record's own global rank, off[parent] + pos, is
// materialised as it lands. Writes from different sources never collide —
// every parent rank has exactly one owner shard — so the scatter runs
// source-parallel with no locks, and each stream is truncated once
// drained, ready for the next round's sends.
func (sh *roundShard) scatter() {
	r := sh.run
	S := r.stride
	off := r.off
	cntv := r.cntv
	for d := range sh.stage {
		q := sh.stage[d]
		if len(q) == 0 {
			continue
		}
		inbox := r.shards[d].inbox
		parent := int64(-1)
		at := 0
		for i := range q {
			rec := &q[i]
			if rec.rank != parent {
				parent = rec.rank
				at = int(cntv[int(parent)*S+d])
			}
			out := &inbox[at]
			*out = *rec
			out.rank = off[parent] + int64(rec.pos)
			at++
		}
		sh.stage[d] = q[:0]
	}
}

// playRoundSerial is the traced schedule: one goroutine delivers the whole
// round in global rank order by merging the shards' rank-sorted inboxes,
// emitting each trace event before the handler runs (trace callbacks must
// see the message before the protocol recycles it). Results are identical
// to the parallel schedule — only the wall-clock interleaving differs —
// because keys, ranks and inbox contents are the same either way.
func (r *shardedRoundRun) playRoundSerial() {
	S := r.stride
	cursors := r.cursors
	for si := range cursors {
		cursors[si] = 0
	}
	t := float64(r.round)
	for {
		best := -1
		bestRank := int64(0)
		for si := range r.shards {
			in := r.shards[si].inbox
			if cursors[si] >= len(in) {
				continue
			}
			if k := in[cursors[si]].rank; best < 0 || k < bestRank {
				best, bestRank = si, k
			}
		}
		if best < 0 {
			return
		}
		sh := &r.shards[best]
		d := &sh.inbox[cursors[best]]
		cursors[best]++
		ctx := &sh.ctxs[d.toLocal]
		ctx.rank = d.rank
		ctx.sends = 0
		base := int(d.rank) * S
		row := r.cntv[base : base+S]
		clear(row)
		ctx.row = row
		sh.report.recordKR(&d.msg, r.round)
		if r.trace != nil {
			r.trace(TraceEvent{Time: t, Depth: r.round, From: d.from, To: ctx.id, Msg: d.msg})
		}
		sh.protos[d.toLocal].Recv(ctx, d.from, d.msg)
	}
}

// scanWindow closes a window serially: off[rank] becomes the global-rank
// base of delivery rank's sends, each count-plane row its per-destination
// scatter bases, dstTot the next inbox sizes. Returns the next window's
// delivery total.
func (r *shardedRoundRun) scanWindow() int64 {
	S := r.stride
	clear(r.dstTot)
	var tot int64
	for rank := range r.off {
		r.off[rank] = tot
		row := r.cntv[rank*S : rank*S+S]
		for d, v := range row {
			row[d] = int32(r.dstTot[d])
			r.dstTot[d] += int64(v)
			tot += int64(v)
		}
	}
	return tot
}

// The parallel scan splits the window's ranks into one contiguous chunk
// per worker: scanChunk prefix-sums each chunk in place and records its
// (per-destination + rank) total vector, combineChunks exclusive-scans the
// W vectors on the coordinator, shiftChunk adds each chunk's bases back in
// and sizes the inboxes its worker owns. Worth the two extra phase
// barriers only on wide windows; parallelScanMin gates it (a variable so
// tests can force the parallel path on small corpora).
var parallelScanMin = 1 << 15

func (r *shardedRoundRun) chunkBounds(w int) (lo, hi int) {
	n := len(r.off)
	return w * n / r.workers, (w + 1) * n / r.workers
}

func (r *shardedRoundRun) scanChunk(w int) {
	lo, hi := r.chunkBounds(w)
	S := r.stride
	acc := r.chunkTot[w*(S+1) : (w+1)*(S+1)]
	clear(acc)
	for rank := lo; rank < hi; rank++ {
		r.off[rank] = acc[S]
		row := r.cntv[rank*S : rank*S+S]
		for d, v := range row {
			row[d] = int32(acc[d])
			acc[d] += int64(v)
			acc[S] += int64(v)
		}
	}
}

func (r *shardedRoundRun) combineChunks() int64 {
	S := r.stride
	clear(r.dstTot)
	var tot int64
	for w := 0; w < r.workers; w++ {
		acc := r.chunkTot[w*(S+1) : (w+1)*(S+1)]
		for d := 0; d < S; d++ {
			v := acc[d]
			acc[d] = r.dstTot[d]
			r.dstTot[d] += v
		}
		v := acc[S]
		acc[S] = tot
		tot += v
	}
	return tot
}

func (r *shardedRoundRun) shiftChunk(w int) {
	lo, hi := r.chunkBounds(w)
	S := r.stride
	base := r.chunkTot[w*(S+1) : (w+1)*(S+1)]
	// base[S] is the sum of the per-destination bases (counts are
	// non-negative), so zero means the whole chunk is already final.
	if base[S] != 0 {
		for rank := lo; rank < hi; rank++ {
			r.off[rank] += base[S]
			row := r.cntv[rank*S : rank*S+S]
			for d := range row {
				row[d] += int32(base[d])
			}
		}
	}
	r.sizeInboxes(w)
}

// sizeInboxes resizes the inboxes of the shards worker w owns (w, w+W,
// ...) to the next window's totals: arena growth is first-touched by the
// worker that will scan the arena every round.
func (r *shardedRoundRun) sizeInboxes(w int) {
	for si := w; si < len(r.shards); si += r.workers {
		r.shards[si].sizeInbox(r.dstTot[si])
	}
}

// openWindow sizes the rank-indexed slabs for the next window's delivery
// total. No clearing: every off entry is written by the next scan, every
// count-plane row by exactly one delivery.
func (r *shardedRoundRun) openWindow(total int64) {
	if int64(cap(r.off)) < total {
		r.off = make([]int64, total)
	} else {
		r.off = r.off[:total]
	}
	need := total * int64(r.stride)
	if int64(cap(r.cntv)) < need {
		r.cntv = make([]int32, need)
	} else {
		r.cntv = r.cntv[:need]
	}
}

// shardedScratch pools the round-path state across runs, mirroring
// eventScratch: the parallel experiment harness and the benchmarks execute
// thousands of sharded runs over the same shapes, and the per-shard slabs
// are the dominant setup allocation.
type shardedScratch struct {
	run    shardedRoundRun
	local  []int32
	protos [][]Protocol
	ctxs   [][]shardRoundCtx
}

var shardedPool = sync.Pool{New: func() any { return new(shardedScratch) }}

func (s *shardedScratch) reset(c *graph.CSR, part *graph.Partition) {
	n := c.N()
	S := part.Shards()
	if cap(s.local) < n {
		s.local = make([]int32, n)
	}
	s.local = s.local[:n]
	if cap(s.run.shards) < S {
		s.run.shards = make([]roundShard, S)
	}
	s.run.shards = s.run.shards[:S]
	if cap(s.protos) < S {
		s.protos = make([][]Protocol, S)
	}
	s.protos = s.protos[:S]
	if cap(s.ctxs) < S {
		s.ctxs = make([][]shardRoundCtx, S)
	}
	s.ctxs = s.ctxs[:S]
	s.run.stride = S
	// The Init window: every node is a rank, so the rank-indexed slabs
	// open at n and n*S.
	if cap(s.run.off) < n {
		s.run.off = make([]int64, n)
	}
	s.run.off = s.run.off[:n]
	if cap(s.run.cntv) < n*S {
		s.run.cntv = make([]int32, n*S)
	}
	s.run.cntv = s.run.cntv[:n*S]
	if cap(s.run.dstTot) < S {
		s.run.dstTot = make([]int64, S)
	}
	s.run.dstTot = s.run.dstTot[:S]
	if cap(s.run.loc) < n {
		s.run.loc = make([]int64, n)
	}
	s.run.loc = s.run.loc[:n]
	if cap(s.run.sent) < n {
		s.run.sent = make([]int64, n)
	}
	s.run.sent = s.run.sent[:n]
	clear(s.run.sent)
	if cap(s.run.chunkTot) < S*(S+1) {
		s.run.chunkTot = make([]int64, S*(S+1))
	}
	s.run.chunkTot = s.run.chunkTot[:S*(S+1)]
	if cap(s.run.cursors) < S {
		s.run.cursors = make([]int, S)
	}
	s.run.cursors = s.run.cursors[:S]
	s.run.round = 0
	for si := range s.run.shards {
		sh := &s.run.shards[si]
		sh.run = &s.run
		sh.index = int32(si)
		nodes := part.Nodes(si)
		sh.nodes = nodes
		if cap(s.ctxs[si]) < len(nodes) {
			s.ctxs[si] = make([]shardRoundCtx, len(nodes))
		}
		sh.ctxs = s.ctxs[si][:len(nodes)]
		if cap(s.protos[si]) < len(nodes) {
			s.protos[si] = make([]Protocol, len(nodes))
		}
		sh.protos = s.protos[si][:len(nodes)]
		sh.report = newReport()
		sh.report.adoptKR(&sh.kr)
		if cap(sh.stage) < S {
			sh.stage = make([][]shardDelivery, S)
		}
		sh.stage = sh.stage[:S]
		for d := range sh.stage {
			sh.stage[d] = sh.stage[d][:0]
		}
		sh.inbox = sh.inbox[:0]
	}
}

// release zeroes everything that can pin protocol state or snapshot
// arrays (abnormal exits leave live entries behind); the caller then
// stashes the scratch on the engine's cache or returns it to the pool.
// The delivery slabs are flat pointer-free records and only need
// truncating — reusing them is what keeps sharded allocs flat at any
// shard count. When stats are armed, this is also where the run's
// worker-busy clocks fold into the PhaseStats (release always runs, so
// instrumented runs account their workers even on error paths).
func (s *shardedScratch) release() {
	if st := s.run.stats; st != nil {
		var busy time.Duration
		for i := range s.run.clocks {
			busy += time.Duration(s.run.clocks[i].ns)
			s.run.clocks[i].ns = 0
		}
		st.WorkerBusy += busy
		if s.run.workers > 1 {
			wall := st.Init + st.Deliver + st.Scan + st.Scatter - s.run.statsWall0
			if idle := wall*time.Duration(s.run.workers) - busy; idle > 0 {
				st.BarrierWait += idle
			}
		}
	}
	for si := range s.run.shards {
		sh := &s.run.shards[si]
		for d := range sh.stage {
			sh.stage[d] = sh.stage[d][:0]
		}
		sh.inbox = sh.inbox[:0]
		for i := range sh.ctxs {
			sh.ctxs[i] = shardRoundCtx{}
		}
		clear(sh.protos)
		sh.report = nil
		sh.nodes = nil
		sh.run = nil
	}
	s.run.owner, s.run.ids, s.run.trace = nil, nil, nil
	s.run.stats = nil
}

// Run compiles g and executes the protocol over the snapshot.
func (e *ShardedEngine) Run(g *graph.Graph, f Factory) (map[NodeID]Protocol, *Report, error) {
	return e.RunSnapshot(g.Compile(), f)
}

// RunSnapshot executes the protocol to quiescence over a compiled snapshot
// with the state plane split across shards. The scheduler tier mirrors
// EventEngine: unit delays run the window-parallel sharded round path,
// anything else the sharded calendar wheels in global order.
func (e *ShardedEngine) RunSnapshot(c *graph.CSR, f Factory) (protos map[NodeID]Protocol, rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			protos, rep = nil, nil
			err = recoverRun(p)
		}
	}()
	dense, rep, err := e.runSnapshotDense(c, f)
	if err != nil {
		return nil, nil, err
	}
	return denseProtoMap(c.Index().IDs(), dense), rep, nil
}

// RunSnapshotDense is RunSnapshot returning the final protocol instances
// dense-indexed (see DenseSnapshotEngine).
func (e *ShardedEngine) RunSnapshotDense(c *graph.CSR, f Factory) (protos []Protocol, rep *Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			protos, rep = nil, nil
			err = recoverRun(p)
		}
	}()
	return e.runSnapshotDense(c, f)
}

// runSnapshotDense is the common body of RunSnapshot and RunSnapshotDense;
// callers own panic recovery.
func (e *ShardedEngine) runSnapshotDense(c *graph.CSR, f Factory) ([]Protocol, *Report, error) {
	start := time.Now()
	part := e.Partition
	S := e.Shards
	if part != nil {
		if err := part.Validate(c); err != nil {
			return nil, nil, err
		}
		if S > 0 && S != part.Shards() {
			return nil, nil, fmt.Errorf("sim: ShardedEngine.Shards=%d disagrees with the %d-shard partition", S, part.Shards())
		}
		S = part.Shards()
	}
	if n := c.N(); S > n && n > 0 {
		S = n
	}
	maxMsgs := e.MaxMessages
	if maxMsgs == 0 {
		maxMsgs = DefaultMaxMessages
	}
	if S <= 1 {
		// One shard is the event engine, definitionally: the N-shard runs
		// are trace-equivalent to this path.
		ev := &EventEngine{Seed: e.Seed, Delay: e.Delay, FIFO: e.FIFO, MaxMessages: e.MaxMessages, Trace: e.Trace, Checkpoint: e.Checkpoint}
		return ev.runSnapshotDense(c, f)
	}
	if part == nil {
		part = graph.PartitionContiguous(c, S)
	}
	if isUnitDelay(e.Delay) {
		return e.runShardedRounds(c, part, f, maxMsgs, start, nil)
	}
	if e.Checkpoint != nil {
		return nil, nil, errCheckpointTier
	}
	return e.runShardedWheel(c, part, f, maxMsgs, start)
}

// Resume compiles g and continues a checkpointed run (see ResumeSnapshot).
func (e *ShardedEngine) Resume(g *graph.Graph, f Factory, ck *Checkpoint) (map[NodeID]Protocol, *Report, error) {
	return e.ResumeSnapshot(g.Compile(), f, ck)
}

// ResumeSnapshot continues a run frozen at a round barrier with the state
// plane sharded: protocol states decode into their owner shards, the
// pending slab reseeds the shard inboxes in canonical rank order, and the
// run proceeds window-parallel. Checkpoints are engine-agnostic: any
// unit-delay engine resumes any barrier checkpoint to the identical
// report, trace and final states.
func (e *ShardedEngine) ResumeSnapshot(c *graph.CSR, f Factory, ck *Checkpoint) (protos map[NodeID]Protocol, rep *Report, err error) {
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
	if err := ck.validateAgainst(c); err != nil {
		return nil, nil, err
	}
	part := e.Partition
	S := e.Shards
	if part != nil {
		if err := part.Validate(c); err != nil {
			return nil, nil, err
		}
		if S > 0 && S != part.Shards() {
			return nil, nil, fmt.Errorf("sim: ShardedEngine.Shards=%d disagrees with the %d-shard partition", S, part.Shards())
		}
		S = part.Shards()
	}
	if n := c.N(); S > n && n > 0 {
		S = n
	}
	maxMsgs := e.MaxMessages
	if maxMsgs == 0 {
		maxMsgs = DefaultMaxMessages
	}
	if S <= 1 {
		ev := &EventEngine{Delay: e.Delay, FIFO: e.FIFO, MaxMessages: e.MaxMessages, Trace: e.Trace, Checkpoint: e.Checkpoint}
		return ev.ResumeSnapshot(c, f, ck)
	}
	if part == nil {
		part = graph.PartitionContiguous(c, S)
	}
	dense, rep, err := e.runShardedRounds(c, part, f, maxMsgs, start, ck)
	if err != nil {
		return nil, nil, err
	}
	return denseProtoMap(c.Index().IDs(), dense), rep, nil
}

// workerCount resolves the effective OS-level parallelism of the round
// path.
func (e *ShardedEngine) workerCount(shards int) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > shards {
		w = shards
	}
	if w < 1 {
		w = 1
	}
	return w
}

// phaseKind names the barrier-separated parallel phases of a round window.
type phaseKind uint8

const (
	phaseInit    phaseKind = iota // run Init over owned nodes
	phaseRound                    // deliver each shard's inbox, tally sends
	phaseScatter                  // place staged sends into destination inboxes
	phaseScan                     // chunked prefix scan of the count plane (workers only)
	phaseShift                    // add chunk bases, size inboxes (workers only)
	phaseExit                     // release the workers
)

// runShardedRounds is the unit-delay fast path: rounds execute as barrier-
// separated parallel phases over the shard set (serial schedule when
// tracing or when only one worker is available). With ck non-nil the run
// resumes from that barrier instead of starting at Init.
func (e *ShardedEngine) runShardedRounds(c *graph.CSR, part *graph.Partition, f Factory, maxMsgs int64, start time.Time, ck *Checkpoint) ([]Protocol, *Report, error) {
	n := c.N()
	S := part.Shards()
	ids := c.Index().IDs()
	scratch := e.cache.Swap(nil)
	if scratch == nil {
		scratch = shardedPool.Get().(*shardedScratch)
	}
	defer func() {
		scratch.release()
		if !e.cache.CompareAndSwap(nil, scratch) {
			shardedPool.Put(scratch)
		}
	}()
	scratch.reset(c, part)
	run := &scratch.run
	run.ids = ids
	run.trace = e.Trace
	run.owner = part.Owners()
	run.workers = e.workerCount(S)
	run.stats = e.Stats
	if st := run.stats; st != nil {
		run.statsWall0 = st.Init + st.Deliver + st.Scan + st.Scatter
		if cap(run.clocks) < run.workers {
			run.clocks = make([]workerClock, run.workers)
		}
		run.clocks = run.clocks[:run.workers]
	}
	for si := range run.shards {
		sh := &run.shards[si]
		for li, v := range sh.nodes {
			scratch.local[v] = int32(li)
			run.loc[v] = int64(si)<<32 | int64(int32(li))
			sh.ctxs[li] = shardRoundCtx{
				shard:     sh,
				id:        ids[v],
				dense:     v,
				neighbors: c.NeighborIDs(v),
				nbrDense:  c.Neighbors(v),
			}
			sh.protos[li] = f(ids[v], sh.ctxs[li].neighbors)
		}
	}
	run.local = scratch.local

	var runPhase func(phaseKind)
	parallelScan := false
	switch {
	case e.Trace != nil:
		// Traced schedule: one goroutine merges the inboxes in global rank
		// order so every event fires at its exact position.
		runPhase = func(k phaseKind) {
			switch k {
			case phaseInit:
				// Global dense order so Init-time Logf notes trace in the
				// 1-shard order; sends are key-ordered regardless.
				for v := int32(0); int(v) < n; v++ {
					sh := &run.shards[run.owner[v]]
					ctx := &sh.ctxs[run.local[v]]
					ctx.rank = int64(v)
					ctx.sends = 0
					base := int(v) * S
					row := run.cntv[base : base+S]
					clear(row)
					ctx.row = row
					sh.protos[run.local[v]].Init(ctx)
				}
			case phaseRound:
				run.playRoundSerial()
			case phaseScatter:
				for si := range run.shards {
					run.shards[si].scatter()
				}
			}
		}
	case run.workers == 1:
		// One worker (single-core host): the parallel schedule inline,
		// shard by shard — same phases, no goroutine handoff.
		runPhase = func(k phaseKind) {
			for si := range run.shards {
				switch k {
				case phaseInit:
					run.shards[si].playInit()
				case phaseRound:
					run.shards[si].playRound()
				case phaseScatter:
					run.shards[si].scatter()
				}
			}
		}
	default:
		stop, phase := e.startWorkers(run)
		defer stop()
		runPhase = phase
		parallelScan = true
	}
	if st := run.stats; st != nil {
		// Wrap the shard phases with coordinator walls; the scan is timed
		// at the barrier close (its serial fallback bypasses runPhase).
		inner := runPhase
		runPhase = func(k phaseKind) {
			t0 := time.Now()
			inner(k)
			d := time.Since(t0)
			switch k {
			case phaseInit:
				st.Init += d
			case phaseRound:
				st.Deliver += d
			case phaseScatter:
				st.Scatter += d
			case phaseScan, phaseShift:
				st.Scan += d
			}
		}
	}

	// closeBarrier prefix-scans the window's count plane — chunk-parallel
	// across the workers when the window is wide enough to amortise the
	// two extra phase barriers — and sizes the next inboxes.
	closeBarrier := func() int64 {
		var total int64
		if parallelScan && len(run.off) >= parallelScanMin {
			runPhase(phaseScan)
			total = run.combineChunks()
			runPhase(phaseShift)
		} else {
			var t0 time.Time
			if run.stats != nil {
				t0 = time.Now()
			}
			total = run.scanWindow()
			for si := range run.shards {
				run.shards[si].sizeInbox(run.dstTot[si])
			}
			if run.stats != nil {
				run.stats.Scan += time.Since(t0)
			}
		}
		return total
	}

	spec := e.Checkpoint
	var total, delivered int64
	if ck == nil {
		runPhase(phaseInit)
		total = closeBarrier()
		runPhase(phaseScatter)
		run.openWindow(total)
		if spec != nil && spec.Every == 0 && spec.Round == 0 {
			// Barrier 0: the state right after Init, before any delivery.
			return nil, nil, e.writeShardedCheckpoint(run, c, total)
		}
	} else {
		// Reseed the post-barrier state from the checkpoint: protocol
		// states decode in their owner shards, the report counters land in
		// shard 0 (the merge sums them back), and the pending slab refills
		// the shard inboxes directly — delivery i arrives with its global
		// rank i, appended in rank order, so each inbox is its rank-sorted
		// subsequence exactly as a scatter would have left it. The dense
		// send counters are credited per pending delivery: the checkpoint
		// debited them when it froze the slab (SentBy counts delivered
		// messages only).
		protoView := make([]Protocol, n)
		for si := range run.shards {
			sh := &run.shards[si]
			for li, v := range sh.nodes {
				protoView[v] = sh.protos[li]
			}
		}
		if err := ck.decodeStates(protoView); err != nil {
			return nil, nil, err
		}
		ck.restoreReport(run.shards[0].report)
		run.round = ck.Round
		ids := run.ids
		for i, p := range ck.Pending {
			run.sent[p.From]++
			dst := &run.shards[run.owner[p.To]]
			dst.inbox = append(dst.inbox, shardDelivery{
				rank:      int64(i),
				fromDense: p.From,
				from:      ids[p.From],
				toLocal:   run.local[p.To],
				msg:       p.Msg,
			})
		}
		total = int64(len(ck.Pending))
		run.openWindow(total)
		delivered = run.shards[0].report.Messages
	}
	for {
		// Match the single-shard cap predicate at window granularity: the
		// event engine errors exactly when the planned deliveries exceed
		// the cap (it aborts before the maxMsgs+1-th delivery), so a
		// window that crossed the cap errors here even if the protocol
		// quiesced inside it.
		if delivered > maxMsgs || (delivered >= maxMsgs && total > 0) {
			return nil, nil, NewBudgetError(delivered, maxMsgs)
		}
		if total == 0 {
			break
		}
		run.round++
		if run.stats != nil {
			run.stats.Rounds++
		}
		runPhase(phaseRound)
		delivered += total
		total = closeBarrier()
		runPhase(phaseScatter)
		run.openWindow(total)
		if spec != nil {
			if spec.Every > 0 {
				// Periodic cadence: commit and keep running. A resumed run
				// re-enters the loop at ck.Round+1, so the barrier it resumed
				// from is never re-committed.
				if run.round%spec.Every == 0 {
					if err := e.commitShardedCheckpoint(run, c, total); err != nil {
						return nil, nil, err
					}
				}
			} else if run.round == spec.Round {
				return nil, nil, e.writeShardedCheckpoint(run, c, total)
			}
		}
	}

	rep := newReport()
	rep.adoptDenseSent(run.sent, ids)
	for si := range run.shards {
		rep.MergeParallel(run.shards[si].report)
	}
	rep.Shards = S
	rep.VirtualTime = float64(run.round)
	rep.finalize()
	rep.Wall = time.Since(start)
	protos := make([]Protocol, n)
	for si := range run.shards {
		sh := &run.shards[si]
		for li, v := range sh.nodes {
			protos[v] = sh.protos[li]
		}
	}
	return protos, rep, nil
}

// captureShardedCheckpoint freezes the run at the just-closed barrier: the
// shard inboxes hold the next round's deliveries (total of them) with
// their global ranks materialised by the scatter, and the shard reports
// merge into the frozen counters. The dense send counters are debited per
// in-flight delivery (SentBy counts delivered messages only); a caller
// that keeps the run going must credit them back.
func (e *ShardedEngine) captureShardedCheckpoint(run *shardedRoundRun, c *graph.CSR, total int64) (*Checkpoint, error) {
	ck := &Checkpoint{Round: run.round, N: c.N(), HalfEdges: c.HalfEdges()}
	ck.Pending = make([]PendingDelivery, total)
	for si := range run.shards {
		sh := &run.shards[si]
		for i := range sh.inbox {
			del := &sh.inbox[i]
			// Debit the dense send counter: SentBy counts delivered
			// messages, and this one is frozen in flight (resume credits
			// it back when reseeding the slab).
			run.sent[del.fromDense]--
			ck.Pending[del.rank] = PendingDelivery{
				From: del.fromDense,
				To:   sh.nodes[del.toLocal],
				Msg:  del.msg,
			}
		}
	}
	merged := newReport()
	merged.adoptDenseSent(run.sent, run.ids)
	for si := range run.shards {
		merged.MergeParallel(run.shards[si].report)
	}
	ck.captureReport(merged)
	protoView := make([]Protocol, c.N())
	for si := range run.shards {
		sh := &run.shards[si]
		for li, v := range sh.nodes {
			protoView[v] = sh.protos[li]
		}
	}
	if err := ck.encodeStates(protoView); err != nil {
		return nil, err
	}
	return ck, nil
}

// writeShardedCheckpoint freezes the run at the just-closed barrier, writes
// it to the armed spec and returns ErrCheckpointed.
func (e *ShardedEngine) writeShardedCheckpoint(run *shardedRoundRun, c *graph.CSR, total int64) error {
	ck, err := e.captureShardedCheckpoint(run, c, total)
	if err != nil {
		return err
	}
	if err := ck.Write(e.Checkpoint.W); err != nil {
		return err
	}
	return ErrCheckpointed
}

// commitShardedCheckpoint durably commits the just-closed barrier through
// the periodic Sink; the run keeps going, so the in-flight debits of the
// dense send counters are credited back after the capture.
func (e *ShardedEngine) commitShardedCheckpoint(run *shardedRoundRun, c *graph.CSR, total int64) error {
	ck, err := e.captureShardedCheckpoint(run, c, total)
	if err != nil {
		return err
	}
	for _, p := range ck.Pending {
		run.sent[p.From]++
	}
	return e.Checkpoint.Sink.Commit(run.round, ck.Write)
}

// runWorkerPhase executes worker w's slice of one phase. Shard phases use
// the static assignment w, w+W, w+2W, ... — which goroutine runs which
// shard never depends on timing — and wrap protocol code in a recover so
// panics surface deterministically (lowest shard first). The scan phases
// split the count plane into per-worker chunks instead; they run no
// protocol code.
func (r *shardedRoundRun) runWorkerPhase(k phaseKind, w int, panics []any) {
	var t0 time.Time
	if r.stats != nil {
		t0 = time.Now()
	}
	switch k {
	case phaseScan:
		r.scanChunk(w)
	case phaseShift:
		r.shiftChunk(w)
	default:
		S := len(r.shards)
		for si := w; si < S; si += r.workers {
			func() {
				defer func() {
					if p := recover(); p != nil {
						panics[si] = p
					}
				}()
				switch k {
				case phaseInit:
					r.shards[si].playInit()
				case phaseRound:
					r.shards[si].playRound()
				case phaseScatter:
					r.shards[si].scatter()
				}
			}()
		}
	}
	if r.stats != nil {
		r.clocks[w].ns += int64(time.Since(t0))
	}
}

// Barrier tuning. A waiter spins on the atomic state — first pure loads,
// then loads with a runtime.Gosched each pass so oversubscribed
// configurations (more workers than GOMAXPROCS) always cede the processor
// to whoever holds the work — and only parks on a condvar once the yield
// budget is spent. Phases are microseconds apart, so the spin window
// catches the steady state with zero futex traffic; the park bound keeps
// stalled configurations (a preempted sibling, protocol work, page
// faults) off the CPU.
const (
	barrierSpinPure  = 64
	barrierSpinYield = 512
)

// phaseBarrier coordinates the persistent workers with the coordinator: a
// sense-reversing barrier where the coordinator's atomic generation bump
// is the publication (each worker's last-seen generation is its sense) and
// an atomic remaining-count closes the phase. Both directions spin first
// and park second, and a parking side registers before re-checking the
// atomic under its mutex, so the waking side can skip the futex entirely
// when nobody is parked — a steady-state round costs no syscalls at all.
type phaseBarrier struct {
	gen       atomic.Uint64
	kind      phaseKind // published by the gen bump: written before the
	// bump, read only after observing it (the atomic creates the
	// happens-before), and never written again until every worker checked
	// in — so the plain field is race-free.
	remaining   atomic.Int32
	waiters     atomic.Int32 // workers parked (or committing to park)
	coordParked atomic.Bool
	mu          sync.Mutex
	cond        *sync.Cond
	doneMu      sync.Mutex
	doneCond    *sync.Cond
	workerParks atomic.Int64
	coordParks  atomic.Int64
}

func newPhaseBarrier() *phaseBarrier {
	b := &phaseBarrier{}
	b.cond = sync.NewCond(&b.mu)
	b.doneCond = sync.NewCond(&b.doneMu)
	return b
}

// post publishes the next phase to w workers. The remaining-count reset is
// safe to reorder freely before the bump: no worker can be between phases
// (awaitDone saw the previous count hit zero before post can run again).
func (b *phaseBarrier) post(k phaseKind, w int32) {
	b.kind = k
	b.remaining.Store(w)
	b.gen.Add(1)
	if b.waiters.Load() > 0 {
		// A worker registered in waiters either sees the new generation in
		// its re-check (and never sleeps) or is inside Wait — taking the
		// mutex here orders the broadcast after that re-check, so the
		// wakeup cannot be lost.
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}
}

// awaitPhase blocks worker-side until a generation newer than seen is
// published, returning the new generation and its phase kind.
func (b *phaseBarrier) awaitPhase(seen uint64) (uint64, phaseKind) {
	for i := 0; i < barrierSpinPure; i++ {
		if g := b.gen.Load(); g != seen {
			return g, b.kind
		}
	}
	for i := 0; i < barrierSpinYield; i++ {
		if g := b.gen.Load(); g != seen {
			return g, b.kind
		}
		runtime.Gosched()
	}
	b.workerParks.Add(1)
	b.mu.Lock()
	b.waiters.Add(1)
	for b.gen.Load() == seen {
		b.cond.Wait()
	}
	b.waiters.Add(-1)
	b.mu.Unlock()
	// The generation is stable until this worker (among others) checks in,
	// so the re-load pairs with the kind read exactly like the fast path.
	return b.gen.Load(), b.kind
}

// done checks this worker in; the last one wakes the coordinator if it
// parked. The decrement/park-flag pair is the mirror of awaitDone's
// flag-set/re-check: one side always observes the other.
func (b *phaseBarrier) done() {
	if b.remaining.Add(-1) == 0 && b.coordParked.Load() {
		b.doneMu.Lock()
		b.doneCond.Signal()
		b.doneMu.Unlock()
	}
}

// awaitDone blocks coordinator-side until every worker checked in.
func (b *phaseBarrier) awaitDone() {
	for i := 0; i < barrierSpinPure; i++ {
		if b.remaining.Load() == 0 {
			return
		}
	}
	for i := 0; i < barrierSpinYield; i++ {
		if b.remaining.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
	b.coordParks.Add(1)
	b.doneMu.Lock()
	b.coordParked.Store(true)
	for b.remaining.Load() != 0 {
		b.doneCond.Wait()
	}
	b.coordParked.Store(false)
	b.doneMu.Unlock()
}

// startWorkers launches the persistent phase workers of the parallel
// schedule. The coordinator publishes each phase through the spin-then-
// park barrier — the steady state is handful-of-atomics cheap, with no
// futex wake on either side — and the returned phase function blocks until
// every worker finished, re-raising the first (lowest-shard) protocol
// panic on the coordinator, where RunSnapshot's recover converts it. stop
// must be called exactly once to release the workers.
func (e *ShardedEngine) startWorkers(run *shardedRoundRun) (stop func(), phase func(phaseKind)) {
	S := len(run.shards)
	W := run.workers
	b := newPhaseBarrier()
	panics := make([]any, S)
	for w := 0; w < W; w++ {
		go func(w int) {
			var seen uint64
			for {
				g, k := b.awaitPhase(seen)
				seen = g
				if k == phaseExit {
					return
				}
				run.runWorkerPhase(k, w, panics)
				b.done()
			}
		}(w)
	}
	stop = func() {
		b.post(phaseExit, int32(W))
		if st := run.stats; st != nil {
			st.WorkerParks += b.workerParks.Load()
			st.CoordParks += b.coordParks.Load()
		}
	}
	phase = func(k phaseKind) {
		b.post(k, int32(W))
		b.awaitDone()
		for si := range panics {
			if p := panics[si]; p != nil {
				panic(p)
			}
		}
	}
	return stop, phase
}


// --- randomised-delay path: sharded state, global (time, seq) order ---

// wheelShard owns one slice of the node range on the randomised-delay
// path: its nodes' contexts and protocols, a calendar wheel holding the
// pending deliveries addressed to them, the FIFO clamp slab of their
// outgoing links, and its own report.
type wheelShard struct {
	wheel  bucketQueue
	ctxs   []shardWheelCtx
	protos []Protocol
	clamp  []float64
	report *Report
}

type shardWheelCtx struct {
	run       *shardWheelRun
	id        NodeID
	neighbors []NodeID
	nbrDense  []int32
	clamp     []float64
	now       float64
	depth     int64
}

func (c *shardWheelCtx) ID() NodeID          { return c.id }
func (c *shardWheelCtx) Neighbors() []NodeID { return c.neighbors }

func (c *shardWheelCtx) Send(to NodeID, m WireMsg) {
	ni := neighborIndex(c.neighbors, to)
	if ni < 0 {
		panic(fmt.Sprintf("sim: node %d sent to non-neighbour %d", c.id, to))
	}
	r := c.run
	d := r.delay(r.rng, c.id, to)
	checkDelay(d, c.id, to)
	t := c.now + d
	if r.fifo {
		if last := c.clamp[ni]; t < last {
			t = last
		}
		c.clamp[ni] = t
	}
	r.seq++
	toDense := c.nbrDense[ni]
	dst := r.owner[toDense]
	ev := event{t: t, seq: r.seq, depth: c.depth + 1, from: c.id, to: to, toDense: toDense, msg: m}
	r.shards[dst].wheel.push(ev)
	// A cross-shard send can land ahead of the window limit the current
	// shard is draining under; tighten the limit so the drain stops before
	// overtaking it (the window invariant: other shards' heads only change
	// through these pushes).
	if dst != r.curShard && (!r.hasLimit || ev.before(r.limit)) {
		r.limit, r.hasLimit = ev, true
	}
}

func (c *shardWheelCtx) Logf(format string, args ...any) {
	if c.run.trace != nil {
		c.run.trace(TraceEvent{Time: c.now, Depth: c.depth, To: c.id, Note: fmt.Sprintf(format, args...)})
	}
}

type shardWheelRun struct {
	rng    *rand.Rand
	delay  DelayFn
	fifo   bool
	trace  func(TraceEvent)
	seq    int64
	owner  []int32
	local  []int32
	shards []wheelShard
	// Speculative window state: curShard is the shard whose wheel is being
	// drained, and limit the earliest event any other shard holds (tightened
	// by cross-shard Sends mid-drain). The drain stops before its head
	// reaches limit, so every pop is still the global (time, seq) minimum.
	curShard int32
	limit    event
	hasLimit bool
}

// runShardedWheel executes the randomised-delay tier: every shard owns its
// nodes' wheel, clamps and report, and the run delivers events in the
// global (time, seq) order — the identical schedule, RNG draw order and
// trace as EventEngine's single wheel, with partitioned ownership.
//
// Rather than paying an S-way peek tournament per event, the run drains
// speculative per-shard windows: the tournament picks the shard holding
// the global minimum once, then pops that shard's wheel for as long as its
// head stays before the earliest event any *other* shard holds (the window
// limit). The invariant making this exact is that while one shard drains,
// other shards' wheels change only through the draining shard's own
// cross-shard sends — and Send tightens the limit whenever such a push
// lands ahead of it. So at every pop the drained head is still the global
// minimum, and the window costs one comparison per event instead of S
// peeks. No lookahead exists below the unit bound (delays can be
// arbitrarily small), so the windows close exactly at cross-shard event
// times — speculation never reorders anything.
func (e *ShardedEngine) runShardedWheel(c *graph.CSR, part *graph.Partition, f Factory, maxMsgs int64, start time.Time) ([]Protocol, *Report, error) {
	n := c.N()
	S := part.Shards()
	ids := c.Index().IDs()
	run := &shardWheelRun{
		rng:    rand.New(rand.NewSource(e.Seed)),
		delay:  e.Delay,
		fifo:   e.FIFO,
		trace:  e.Trace,
		owner:  part.Owners(),
		local:  make([]int32, n),
		shards: make([]wheelShard, S),
	}
	for si := range run.shards {
		sh := &run.shards[si]
		nodes := part.Nodes(si)
		sh.ctxs = make([]shardWheelCtx, len(nodes))
		sh.protos = make([]Protocol, len(nodes))
		degSum := 0
		for _, v := range nodes {
			degSum += c.Degree(v)
		}
		sh.clamp = make([]float64, degSum)
		sh.report = newReport()
		at := 0
		for li, v := range nodes {
			run.local[v] = int32(li)
			deg := c.Degree(v)
			sh.ctxs[li] = shardWheelCtx{
				run:       run,
				id:        ids[v],
				neighbors: c.NeighborIDs(v),
				nbrDense:  c.Neighbors(v),
				clamp:     sh.clamp[at : at+deg],
			}
			at += deg
			sh.protos[li] = f(ids[v], sh.ctxs[li].neighbors)
		}
	}
	// All nodes start independently; Init runs at time zero in ID order.
	// No window is open yet, so Init-time sends must not tighten a limit.
	run.curShard = -1
	for v := int32(0); int(v) < n; v++ {
		sh := &run.shards[run.owner[v]]
		sh.protos[run.local[v]].Init(&sh.ctxs[run.local[v]])
	}
	var delivered int64
	for {
		// Window tournament: find the shard holding the global minimum and
		// the earliest head among the others — the window limit.
		best := -1
		var bestEv event
		for si := range run.shards {
			w := &run.shards[si].wheel
			if w.empty() {
				continue
			}
			if ev := w.peek(); best < 0 || ev.before(bestEv) {
				best, bestEv = si, ev
			}
		}
		if best < 0 {
			break
		}
		run.hasLimit = false
		for si := range run.shards {
			if si == best || run.shards[si].wheel.empty() {
				continue
			}
			if ev := run.shards[si].wheel.peek(); !run.hasLimit || ev.before(run.limit) {
				run.limit, run.hasLimit = ev, true
			}
		}
		run.curShard = int32(best)
		sh := &run.shards[best]
		for {
			if delivered >= maxMsgs {
				return nil, nil, NewBudgetError(delivered, maxMsgs)
			}
			ev := sh.wheel.pop()
			li := run.local[ev.toDense]
			ctx := &sh.ctxs[li]
			ctx.now = ev.t
			ctx.depth = ev.depth
			sh.report.record(ev.from, ev.msg, ev.depth)
			delivered++
			if ev.t > sh.report.VirtualTime {
				sh.report.VirtualTime = ev.t
			}
			if run.trace != nil {
				run.trace(TraceEvent{Time: ev.t, Depth: ev.depth, From: ev.from, To: ev.to, Msg: ev.msg})
			}
			sh.protos[li].Recv(ctx, ev.from, ev.msg)
			if sh.wheel.empty() {
				break
			}
			if run.hasLimit && !sh.wheel.peek().before(run.limit) {
				break
			}
		}
		run.curShard = -1
	}
	rep := newReport()
	for si := range run.shards {
		rep.MergeParallel(run.shards[si].report)
	}
	rep.Shards = S
	rep.finalize()
	rep.Wall = time.Since(start)
	protos := make([]Protocol, n)
	for si := range run.shards {
		sh := &run.shards[si]
		for li, v := range part.Nodes(si) {
			protos[v] = sh.protos[li]
		}
	}
	return protos, rep, nil
}

var _ SnapshotEngine = (*ShardedEngine)(nil)
var _ DenseSnapshotEngine = (*ShardedEngine)(nil)
var _ ResumableEngine = (*ShardedEngine)(nil)
