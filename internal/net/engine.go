package net

import (
	"errors"
	"fmt"
	"time"

	"mdegst/internal/graph"
	"mdegst/internal/sim"
)

// DistEngine executes a protocol run across the OS processes of an
// established Transport mesh: each process hosts the nodes its Owner table
// assigns to it and drives unit-delay rounds separated by barriers. The
// barrier rebuilds the single-process engine's delivery order (DESIGN.md
// §13) — deliveries keyed (parent rank, send position), rank offsets from
// a prefix sum over broadcast send counts — so the
// distributed run is tree-, report- and checkpoint-byte-equivalent to the
// in-process engines. DistEngine is a drop-in sim.ResumableEngine: the
// spanning and mdst pipelines run on it unchanged.
//
// A barrier exchanges at most one round frame per peer: the sender's
// (rank, count) pairs, its next-round activity set and the delivery batch
// destined to that peer, coalesced and flushed once. When exactly one
// process has deliveries in a round, that round is a solo round (DESIGN.md
// §13): the lone process closes it locally and sends only when a peer must
// hear, while every other process waits for its next frame. Quiescence (a
// round with no sends anywhere) triggers the final all-gather: every
// process broadcasts its report counters and its owned nodes' encoded
// states, so every process finishes holding the complete final state
// plane and extracts the identical tree. The all-gather doubles as the
// run-closing barrier; a run-sequence number in every frame keeps the two
// pipeline phases (flood build, improvement) apart on the shared
// connections.
//
// All processes of one run must be constructed with identical Owner and
// Checkpoint.Round/Every configuration — the topology config file is that
// single source of truth for cmd/mdstd.
type DistEngine struct {
	// T is the established transport mesh.
	T *Transport
	// Owner maps every dense node to its owning process.
	Owner []int32
	// Checkpoint, when non-nil, arms barrier checkpointing. Freeze mode
	// (Every == 0) stops the run at the barrier after round
	// Checkpoint.Round: the peers upload their shards to process 0, which
	// assembles and writes a file byte-identical to the in-process
	// engines' (Checkpoint.W is used on process 0 only) and acknowledges
	// the commit before anyone stops. Periodic mode (Every > 0) runs the
	// same commit protocol at every barrier whose round is a positive
	// multiple of Every, with process 0 writing through Checkpoint.Sink,
	// and the cluster keeps running — there is always a recent recovery
	// point. Commit and freeze barriers are always full exchanges.
	Checkpoint *sim.CheckpointSpec
	// Stop, polled whenever this process closes a round it takes part in,
	// requests a graceful cluster-wide stop: the process latches the
	// request into the stop flag of every round frame it sends from then
	// on, every process ORs the flags of the frames it hears at a barrier,
	// and on agreement the run commits a final checkpoint (when Checkpoint
	// is armed) and returns sim.ErrStopped at the same barrier everywhere
	// — no process dies mid-barrier. A process idle in a peer's solo
	// stretch sends nothing, so its request takes effect at the next
	// barrier it sends a frame at.
	Stop func() bool
	// Stats, when non-nil, accumulates per-run wire and barrier counters
	// (frames, bytes, header share, flushes, barrier wait). Engine
	// goroutine only; nil costs one branch per barrier.
	Stats *NetStats

	// seq numbers the runs driven over this engine's transport, separating
	// the phases' frames on the shared connections.
	seq uint64
	// stopLatched makes the stop request sticky across barriers and runs.
	stopLatched bool
	// sc is the engine-instance round arena (DESIGN.md §13): every slab the
	// barrier needs, grown by amortised doubling and reused across rounds
	// and runs, so an unperturbed steady-state round allocates nothing.
	sc arena
}

// arena is the persistent round arena. All slabs are engine-goroutine-only
// and sized by the high-water mark of the rounds driven so far.
type arena struct {
	cnt    []int64               // rank slab: counts scattered, prefix-summed into offsets
	base   []int64               // per-parent local placement cursors for the splice
	inbox  []sim.PendingDelivery // spliced global-order delivery plane handed to Play
	ranks  []int64               // the global rank of each inbox record
	enc    [][]byte              // per-peer frame encode slabs
	rx     [][]sim.OutMsg        // per-peer decoded-batch slabs
	act    []bool                // next-round activity: the union of the activity sets heard this step
	own    []int32               // this process's activity set: the processes it queued records for
	owned  []int32               // the dense nodes this process owns, ascending
	out    [][]sim.OutMsg        // per destination process: the phase's routed sends
	counts []sim.RankCount       // (rank, send count) of every delivery played this phase

	states     []ownedState // owned-state headers for the all-gather / checkpoint
	stateBytes []byte       // arena behind the states' blobs

	runner sim.RoundRunner // plays the owned nodes; its slabs serve every run
}

// reset readies the arena for a run: the list of owned nodes and one
// routed run per process.
func (s *arena) reset(owner []int32, self, procs int) {
	s.owned = s.owned[:0]
	for v, q := range owner {
		if q == int32(self) {
			s.owned = append(s.owned, int32(v))
		}
	}
	if len(s.out) != procs {
		s.out = make([][]sim.OutMsg, procs)
	}
}

// begin readies the per-process tables for one barrier step: activity
// marks cleared and peer batch slabs emptied, since a step that hears
// from only some peers splices only theirs.
func (s *arena) begin(procs int) {
	if len(s.enc) < procs {
		s.enc = make([][]byte, procs)
		s.rx = make([][]sim.OutMsg, procs)
		s.act = make([]bool, procs)
		s.own = make([]int32, 0, procs)
	}
	s.act = s.act[:procs]
	for q := range s.act {
		s.act[q] = false
		s.rx[q] = s.rx[q][:0]
	}
}

// slabs ensures the two rank-indexed slabs hold rankSpace entries (grown
// by doubling, never shrunk) and returns the zeroed rank slab for this
// barrier; the zeroed placement cursors wait in base for the splice.
func (s *arena) slabs(rankSpace int64) []int64 {
	if int64(cap(s.cnt)) < rankSpace {
		grow := 2 * int64(cap(s.cnt))
		if grow < rankSpace {
			grow = rankSpace
		}
		s.cnt = make([]int64, grow)
		s.base = make([]int64, grow)
	}
	cnt, base := s.cnt[:rankSpace], s.base[:rankSpace]
	for i := range cnt {
		cnt[i] = 0
		base[i] = 0
	}
	return cnt
}

// grownInbox returns n-record views of the inbox slab and its ranks.
func (s *arena) grownInbox(n int) ([]sim.PendingDelivery, []int64) {
	if cap(s.inbox) < n {
		grow := 2 * cap(s.inbox)
		if grow < n {
			grow = n
		}
		s.inbox = make([]sim.PendingDelivery, grow)
		s.ranks = make([]int64, grow)
	}
	return s.inbox[:n], s.ranks[:n]
}

// route derives at the barrier what the wire needs of a played phase:
// played delivery i has global rank ranks[i] and sent sent[ends[i-1]:ends[i]],
// so each send is keyed (ranks[i], its offset in that range) and appended
// to the run of its receiver's owner, and the delivery's (rank, count)
// pair to counts. Ranks ascend, so every run comes out key-sorted. out's
// runs are emptied first; the extended counts are returned.
func route[R int32 | int64](out [][]sim.OutMsg, counts []sim.RankCount, owner []int32, sent []sim.PendingDelivery, ends []int, ranks []R) []sim.RankCount {
	for d := range out {
		out[d] = out[d][:0]
	}
	lo := 0
	for i, hi := range ends {
		rank := int64(ranks[i])
		for pos, m := range sent[lo:hi] {
			d := owner[m.To]
			out[d] = append(out[d], sim.OutMsg{Parent: rank, Pos: int32(pos), From: m.From, To: m.To, Msg: m.Msg})
		}
		counts = append(counts, sim.RankCount{Rank: rank, Count: int64(hi - lo)})
		lo = hi
	}
	return counts
}

// barrierState is what a process knows once a barrier closes.
type barrierState struct {
	round     int64                 // the round the barrier closed (0: Init)
	off       []int64               // next round's rank offsets (aliasing engine scratch)
	total     int64                 // next round's global delivery count
	inbox     []sim.PendingDelivery // this process's next-round deliveries, in global order
	ranks     []int64               // the global rank of each inbox record
	delivered int64                 // the cluster's cumulative delivered count
	stop      bool                  // the barrier agreed a graceful stop
	active    int                   // processes with deliveries next round
	lone      int                   // the active process when active == 1
	guard     sim.Guard             // the run's progress window, merged at every frame heard
}

// header is the control prefix of this process's frame closing st.round:
// the barrier's counts and the process's view of the run's progress.
func (st *barrierState) header(seq, flags uint64, rankSpace int64) roundHeader {
	return roundHeader{seq: seq, round: st.round, flags: flags, rankSpace: rankSpace, delivered: st.delivered,
		top: int64(st.guard.Top()), since: st.guard.Since()}
}

// census counts the processes the activity marks name.
func (st *barrierState) census(act []bool) {
	st.active, st.lone = 0, -1
	for q, a := range act {
		if a {
			st.active++
			st.lone = q
		}
	}
}

// Run executes the protocol to quiescence across the mesh. The runner
// already addresses every node's state densely and the final all-gather
// writes peer states into that same slice, so it is the result. It is
// recycled by the engine: the slice stays valid until the engine's next
// Run or Resume.
func (e *DistEngine) Run(c *graph.CSR, f sim.Factory) ([]sim.Protocol, *sim.Report, error) {
	return e.run(c, f, nil)
}

// Resume continues a checkpointed run: every process decodes the full
// frozen state plane from ck (each process reads the checkpoint file
// itself — there is no state redistribution), takes over the pending
// deliveries it owns, and the run proceeds exactly as if never stopped.
func (e *DistEngine) Resume(c *graph.CSR, f sim.Factory, ck *sim.Checkpoint) ([]sim.Protocol, *sim.Report, error) {
	if ck == nil {
		return nil, nil, &sim.CheckpointError{Reason: "nil checkpoint"}
	}
	return e.run(c, f, ck)
}

func (e *DistEngine) run(c *graph.CSR, f sim.Factory, ck *sim.Checkpoint) (protos []sim.Protocol, rep *sim.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			protos, rep = nil, nil
			err = sim.PanicError(p)
		}
	}()
	start := time.Now()
	t := e.T
	self := t.Self()
	if len(e.Owner) != c.N() {
		return nil, nil, fmt.Errorf("net: owner table covers %d nodes, snapshot has %d", len(e.Owner), c.N())
	}
	e.seq++
	seq := e.seq
	r := &e.sc.runner
	r.Reset(c, f)
	e.sc.reset(e.Owner, self, t.Procs())

	st := barrierState{guard: sim.NewGuard(c)}
	if ck == nil {
		// Init is round 0, with dense node indices as ranks.
		r.Init(e.sc.owned)
		sent, ends := r.Sent()
		e.sc.counts = route(e.sc.out, e.sc.counts[:0], e.Owner, sent, ends, e.sc.owned)
		if err := e.fullBarrier(seq, &st, int64(c.N()), -1); err != nil {
			return nil, nil, decorateBarrier(err, 0)
		}
		if e.Stats != nil {
			e.Stats.Rounds++
		}
	} else {
		// Reseed from the checkpoint: full state plane everywhere, the
		// counters on process 0 only (the final merge sums them back), and
		// the pending slab replayed as an already-spliced inbox — rank i is
		// delivery i of the frozen round, so the offsets are the identity
		// and the owned records take their rank directly. Every process
		// reads the whole slab, so every process derives the first round's
		// activity from it.
		if err := ck.ValidateAgainst(c); err != nil {
			return nil, nil, err
		}
		if err := ck.RestoreStates(r.Protos()); err != nil {
			return nil, nil, err
		}
		if self == 0 {
			if err := ck.RestoreCounters(r.Report()); err != nil {
				return nil, nil, err
			}
		}
		st.guard.Resume(ck)
		st.round = ck.Round
		st.delivered = ck.Messages
		st.total = int64(len(ck.Pending))
		st.off = make([]int64, len(ck.Pending))
		for i := range st.off {
			st.off[i] = int64(i)
		}
		e.sc.begin(t.Procs())
		for i, p := range ck.Pending {
			q := e.Owner[p.To]
			e.sc.act[q] = true
			if q == int32(self) {
				st.inbox = append(st.inbox, p)
				st.ranks = append(st.ranks, int64(i))
			}
		}
		st.census(e.sc.act)
	}

	spec := e.Checkpoint
	for {
		// An armed crash fault is honoured first: the process abandons the
		// run abruptly, tearing its connections down mid-protocol — the
		// chaos tests' stand-in for a real crash.
		if t.Faults != nil && t.Faults.crashAt(self, int64(seq), st.round) {
			t.Close()
			return nil, nil, &InjectedCrashError{Run: int64(seq), Round: st.round}
		}
		// A barrier-agreed stop outranks everything but quiescence: commit
		// a final recovery point when checkpointing is armed, then stop
		// cleanly on every process at this same barrier.
		if st.stop && st.total > 0 {
			if spec != nil {
				if err := e.commit(c, seq, st.round, st.off, st.total); err != nil {
					return nil, nil, decorateBarrier(err, st.round)
				}
			}
			return nil, nil, sim.ErrStopped
		}
		// A forced barrier commits or freezes a checkpoint. Every process
		// knows these barriers in advance, and they are always full
		// exchanges.
		if ck == nil && spec.Next(st.round-1) == st.round {
			if err := e.commit(c, seq, st.round, st.off, st.total); err != nil {
				return nil, nil, decorateBarrier(err, st.round)
			}
			if spec.Every == 0 {
				return nil, nil, sim.ErrCheckpointed
			}
		}
		// The guard and the counts are barrier-agreed, so every process
		// aborts here, at the barrier where EventEngine's round tier does.
		if st.guard.Trips(st.delivered, st.total) {
			return nil, nil, st.guard.Abort(st.delivered)
		}
		if st.total == 0 {
			break
		}
		prev := st.round
		if st.active == 1 && st.lone != self {
			err = e.awaitLone(seq, &st)
		} else {
			st.round++
			r.Play(st.round, st.inbox)
			sent, ends := r.Sent()
			e.sc.counts = route(e.sc.out, e.sc.counts[:0], e.Owner, sent, ends, st.ranks)
			rankSpace := st.total
			st.delivered += rankSpace
			st.guard.Observe(r.Report(), st.delivered)
			if st.active == 1 && spec.Next(st.round-1) != st.round {
				err = e.soloBarrier(seq, &st, rankSpace)
			} else {
				err = e.fullBarrier(seq, &st, rankSpace, -1)
			}
		}
		if err != nil {
			return nil, nil, decorateBarrier(err, st.round)
		}
		if e.Stats != nil {
			e.Stats.Rounds += st.round - prev
		}
		// A checkpoint barrier reached by replaying past a resume must not
		// re-commit; only barriers beyond the resume point fire above.
		if ck != nil && st.round > ck.Round {
			ck = nil
		}
	}
	if rep, err = e.finish(c, seq, st.round, start); err != nil {
		return nil, nil, err
	}
	return r.Protos(), rep, nil
}

// decorateBarrier stamps a liveness failure with the last barrier the
// local process completed, turning "peer down" into "peer down since
// barrier r" for the operator.
func decorateBarrier(err error, round int64) error {
	var pd *PeerDownError
	if errors.As(err, &pd) && pd.Barrier < 0 {
		pd.Barrier = round
	}
	return err
}

// stopFlags polls the stop request (sticky once seen) and returns the
// flags word of this process's next round frame.
func (e *DistEngine) stopFlags() uint64 {
	if e.Stop != nil && e.Stop() {
		e.stopLatched = true
	}
	if e.stopLatched {
		return roundFlagStop
	}
	return 0
}

// markOwn records this process's activity set — the processes it queued
// next-round records for, itself included — in sc.own and the step's
// activity marks, reporting whether it names a peer.
func (e *DistEngine) markOwn() bool {
	self := e.T.Self()
	own := e.sc.own[:0]
	peers := false
	for q := range e.sc.act {
		if len(e.sc.out[q]) > 0 {
			own = append(own, int32(q))
			e.sc.act[q] = true
			peers = peers || q != self
		}
	}
	e.sc.own = own
	return peers
}

// sendRound sends this process's round frame to every peer — the header,
// its activity set and counts, and the peer's delivery batch — then
// flushes once.
func (e *DistEngine) sendRound(h roundHeader) error {
	t := e.T
	for q := 0; q < t.Procs(); q++ {
		if q == t.Self() {
			continue
		}
		body := appendRoundHeader(e.sc.enc[q][:0], h, e.sc.own, e.sc.counts)
		hdr := len(body)
		body = appendRoundBatch(body, e.sc.out[q], t.Table())
		e.sc.enc[q] = body
		if st := e.Stats; st != nil {
			st.FramesSent++
			st.BytesSent += int64(len(body))
			st.HeaderBytes += int64(hdr)
		}
		if err := t.Send(q, frameRound, body); err != nil {
			return err
		}
	}
	if st := e.Stats; st != nil {
		st.Flushes++
	}
	return t.FlushAll()
}

// fullBarrier closes round st.round with the all-to-all exchange: send
// this process's frame to every peer, hear every peer's, scatter all
// counts into the rank slab (verifying exact coverage and that every
// frame agrees on the round, rank space and delivered count), OR the stop
// flags and activity sets, then splice. have names a peer whose frame
// this process already decoded — the lone process of a solo stretch whose
// frame closed a forced barrier, its stop flag already in st.stop — or is
// -1.
func (e *DistEngine) fullBarrier(seq uint64, st *barrierState, rankSpace int64, have int) error {
	t := e.T
	self := t.Self()
	stop := false
	covered := int64(0)
	if have < 0 {
		e.sc.begin(t.Procs())
		e.sc.slabs(rankSpace)
	} else {
		stop, covered = st.stop, rankSpace
	}
	e.markOwn()
	h := st.header(seq, e.stopFlags(), rankSpace)
	if err := e.sendRound(h); err != nil {
		return err
	}
	// Scatter the local counts (trusted: ranks come from this process's own
	// prefix sums), then each peer's — decodeRound scatters and
	// bounds-checks while parsing, straight into the slab.
	cnt := e.sc.cnt[:rankSpace]
	for _, c := range e.sc.counts {
		cnt[c.Rank] = c.Count
	}
	covered += int64(len(e.sc.counts))
	stop = stop || h.flags&roundFlagStop != 0
	x := roundExpect{seq: seq, round: st.round, rankSpace: rankSpace, delivered: st.delivered}
	for q := 0; q < t.Procs(); q++ {
		if q == self || q == have {
			continue
		}
		ph, cov, err := e.recvRound(q, &x)
		if err != nil {
			return err
		}
		stop = stop || ph.flags&roundFlagStop != 0
		st.guard.Merge(int(ph.top), ph.since)
		covered += cov
	}
	if covered != rankSpace {
		return &FrameError{Type: frameRound, Reason: fmt.Sprintf("barrier covered %d of %d delivery ranks", covered, rankSpace)}
	}
	st.stop = stop
	return e.splice(st, rankSpace)
}

// soloBarrier closes a round this process played alone. Its counts cover
// the whole rank space, so it computes the offsets and its next inbox
// locally, and it sends a frame — to every peer — only when one must
// hear: it queued records for a peer, the run goes quiescent, the guard
// trips, or it latched a stop. Forced barriers never come here.
func (e *DistEngine) soloBarrier(seq uint64, st *barrierState, rankSpace int64) error {
	counts := e.sc.counts
	if int64(len(counts)) != rankSpace {
		return &FrameError{Type: frameRound, Reason: fmt.Sprintf("solo round played %d of %d deliveries", len(counts), rankSpace)}
	}
	e.sc.begin(e.T.Procs())
	cnt := e.sc.slabs(rankSpace)
	for _, c := range counts {
		cnt[c.Rank] = c.Count
	}
	peers := e.markOwn()
	flags := e.stopFlags()
	st.stop = flags&roundFlagStop != 0
	if err := e.splice(st, rankSpace); err != nil {
		return err
	}
	if peers || st.total == 0 || st.stop || st.guard.Trips(st.delivered, st.total) {
		return e.sendRound(st.header(seq, flags, rankSpace))
	}
	return nil
}

// awaitLone is the step of a process idle in a peer's solo stretch: it
// plays nothing and blocks for the lone process's next frame, whatever
// round that frame closes, adopting the frame's round, rank space,
// counts, delivered count, stop flag and activity set. A frame closing a
// forced barrier continues into the full exchange.
func (e *DistEngine) awaitLone(seq uint64, st *barrierState) error {
	lone := st.lone
	// The sends of the last round this process played were delivered at
	// the barrier that closed it: route an empty phase.
	e.sc.counts = route(e.sc.out, e.sc.counts[:0], e.Owner, nil, nil, []int64(nil))
	e.sc.begin(e.T.Procs())
	x := roundExpect{seq: seq, round: st.round, solo: true, limit: e.Checkpoint.Next(st.round)}
	h, _, err := e.recvRound(lone, &x)
	if err != nil {
		return err
	}
	st.round, st.delivered = h.round, h.delivered
	st.guard.Merge(int(h.top), h.since)
	st.stop = h.flags&roundFlagStop != 0
	if e.Checkpoint.Next(h.round-1) == h.round {
		return e.fullBarrier(seq, st, h.rankSpace, lone)
	}
	return e.splice(st, h.rankSpace)
}

// splice turns the barrier's rank slab into the next round's offsets and
// delivery total, and places this process's next-round records — its own
// loopback outbox plus every peer batch heard this step — into the inbox
// in global delivery order.
//
// The splice is a counting sort, not a merge (DESIGN.md §13): every
// parent rank's deliveries are played by exactly one process, so all of a
// parent's sends to this receiver arrive in exactly one run, already
// ascending in Pos. Counting the local records per parent and
// prefix-summing yields each parent's block start in the inbox; a second
// pass places every record at its block cursor and materialises its
// global rank (off[Parent] + Pos) beside it. Block order follows parent
// rank and within-parent order follows the run, so the inbox is exactly
// the canonical (Parent, Pos) delivery order — in O(records + rankSpace)
// with zero comparisons and, after warm-up, zero allocations. The inbox
// aliases engine scratch and is valid until the next barrier.
func (e *DistEngine) splice(st *barrierState, rankSpace int64) error {
	t := e.T
	self := t.Self()
	cnt, base := e.sc.cnt[:rankSpace], e.sc.base[:rankSpace]
	var total int64
	for i, c := range cnt {
		cnt[i] = total
		total += c
	}

	// First pass: local records per parent; exclusive prefix sum turns
	// base into block cursors; second pass places each record and
	// materialises its global rank. Peer records are ownership-checked here
	// (their endpoints came off a socket); loopback records were routed by
	// the local owner table.
	nrec := len(e.sc.out[self])
	for _, m := range e.sc.out[self] {
		base[m.Parent]++
	}
	for _, rx := range e.sc.rx {
		for _, m := range rx {
			base[m.Parent]++
		}
		nrec += len(rx)
	}
	var at int64
	for i := range base {
		c := base[i]
		base[i] = at
		at += c
	}
	inbox, ranks := e.sc.grownInbox(nrec)
	place := func(m *sim.OutMsg) {
		slot := base[m.Parent]
		base[m.Parent]++
		inbox[slot] = sim.PendingDelivery{From: m.From, To: m.To, Msg: m.Msg}
		ranks[slot] = cnt[m.Parent] + int64(m.Pos)
	}
	for i := range e.sc.out[self] {
		place(&e.sc.out[self][i])
	}
	for q, rx := range e.sc.rx {
		for i := range rx {
			m := &rx[i]
			if int(m.To) >= len(e.Owner) || e.Owner[m.To] != int32(self) || int(m.From) >= len(e.Owner) {
				return &FrameError{Type: frameRound, Reason: fmt.Sprintf(
					"process %d sent a delivery %d->%d this process does not own", q, m.From, m.To)}
			}
			place(m)
		}
	}
	if (nrec > 0) != e.sc.act[self] {
		return &FrameError{Type: frameRound, Reason: fmt.Sprintf(
			"activity sets disagree with the %d records this process receives next round", nrec)}
	}
	st.off, st.total, st.inbox, st.ranks = cnt, total, inbox, ranks
	st.census(e.sc.act)
	return nil
}

// recvRound reads and stream-decodes peer q's next round frame against
// the local barrier's expectation. Per-peer FIFO delivery and the
// all-gather barrier between runs guarantee it is the next frame on the
// connection; anything else is a protocol violation. Returns the frame's
// header and its count-entry total for the coverage cross-check.
func (e *DistEngine) recvRound(q int, x *roundExpect) (roundHeader, int64, error) {
	var t0 time.Time
	if e.Stats != nil {
		t0 = time.Now()
	}
	typ, payload, err := e.T.Recv(q)
	if st := e.Stats; st != nil {
		st.BarrierWaitNs += int64(time.Since(t0))
		if err == nil {
			st.FramesRecv++
			st.BytesRecv += int64(len(payload))
		}
	}
	if err != nil {
		return roundHeader{}, 0, err
	}
	if typ != frameRound {
		return roundHeader{}, 0, &FrameError{Type: typ, Reason: fmt.Sprintf("process %d sent frame type %d at a round barrier", q, typ)}
	}
	return e.sc.decodeRound(q, payload, e.T.Table(), x)
}

// encodeShard encodes this process's shard of the run frozen at round:
// its report counters, the states of the nodes it owns (encoded with the
// canonical wire table into the engine's state arena) and the given
// delivery runs.
func (e *DistEngine) encodeShard(seq uint64, round int64, runs [][]sim.OutMsg) ([]byte, error) {
	t := e.T
	r := &e.sc.runner
	states := e.sc.states[:0]
	w := sim.Writer(e.sc.stateBytes[:0], t.Table().Enc)
	for _, v := range e.sc.owned {
		n0 := len(w.Bytes())
		if err := w.Protocol(r.Protos()[v]); err != nil {
			return nil, err
		}
		buf := w.Bytes()
		states = append(states, ownedState{dense: v, blob: buf[n0:len(buf):len(buf)]})
	}
	e.sc.states, e.sc.stateBytes = states, w.Bytes()
	m := shard{seq: seq, round: round, states: states, runs: runs}
	m.counters.CaptureCounters(r.Report())
	return appendShard(nil, &m, t.Table()), nil
}

// takeShard takes in peer q's shard, a frame of type typ for run seq over
// c frozen at round: it merges the shard's counters into merged (each
// sender checked against c), decodes its states into the local instances
// (each node checked against the owner table) and returns its runs.
func (e *DistEngine) takeShard(c *graph.CSR, q int, typ byte, seq uint64, round int64, merged *sim.Report) ([][]sim.OutMsg, error) {
	t := e.T
	got, payload, err := t.Recv(q)
	if err != nil {
		return nil, err
	}
	if got != typ {
		return nil, &FrameError{Type: got, Reason: fmt.Sprintf("process %d sent frame type %d, want a type %d shard", q, got, typ)}
	}
	m, err := parseShard(typ, payload, t.Table())
	if err != nil {
		return nil, err
	}
	if m.seq != seq || m.round != round {
		return nil, &FrameError{Type: typ, Reason: fmt.Sprintf(
			"process %d froze run %d at round %d, local run %d is at round %d", q, m.seq, m.round, seq, round)}
	}
	for _, s := range m.counters.SentBy {
		if _, ok := c.Index().Of(s.Node); !ok {
			return nil, &FrameError{Type: typ, Reason: fmt.Sprintf("process %d counted sends of node %d, which is not in the graph", q, s.Node)}
		}
	}
	peerRep := sim.NewReport()
	if err := m.counters.RestoreCounters(peerRep); err != nil {
		return nil, err
	}
	merged.MergeParallel(peerRep)
	sr := sim.StateReader(t.Table().Dec)
	for _, s := range m.states {
		if int(s.dense) >= len(e.Owner) || e.Owner[s.dense] != int32(q) {
			return nil, &FrameError{Type: typ, Reason: fmt.Sprintf("process %d sent the state of node %d it does not own", q, s.dense)}
		}
		if err := sr.Load(e.sc.runner.Protos()[s.dense], s.blob); err != nil {
			return nil, err
		}
	}
	return m.runs, nil
}

// finish is the quiescence all-gather: broadcast counters and owned
// states, decode every peer's states into the local instances, merge the
// reports, and return the complete final state plane. Matching the
// single-process engines, the merged report carries VirtualTime = the
// final round.
func (e *DistEngine) finish(c *graph.CSR, seq uint64, round int64, start time.Time) (*sim.Report, error) {
	t := e.T
	self := t.Self()
	body, err := e.encodeShard(seq, round, nil)
	if err != nil {
		return nil, err
	}
	for q := 0; q < t.Procs(); q++ {
		if q == self {
			continue
		}
		if err := t.Send(q, frameFinal, body); err != nil {
			return nil, err
		}
	}
	if err := t.FlushAll(); err != nil {
		return nil, err
	}

	merged := sim.NewReport()
	merged.MergeParallel(e.sc.runner.Report())
	for q := 0; q < t.Procs(); q++ {
		if q == self {
			continue
		}
		runs, err := e.takeShard(c, q, frameFinal, seq, round, merged)
		if err != nil {
			return nil, err
		}
		if len(runs) != 0 {
			return nil, &FrameError{Type: frameFinal, Reason: fmt.Sprintf("process %d sent %d delivery runs in its final shard", q, len(runs))}
		}
	}
	merged.VirtualTime = float64(round)
	merged.Finalize()
	merged.Wall = time.Since(start)
	return merged, nil
}

// commit runs the distributed checkpoint protocol at the just-closed
// barrier. Peers upload their shard — counters, owned states and one
// key-sorted run per destination process of the deliveries they sent into
// the frozen round — to process 0, which decodes the full state plane,
// merges the counters, places every record of every run (its own outboxes
// included) at its global rank, stores the file (byte-identical to the
// in-process engines' by construction — durably through the spec's Sink
// when set, else to its W) and acknowledges the commit. Returns nil on
// success; the caller decides whether the run stops (freeze, graceful
// stop) or continues (periodic cadence).
func (e *DistEngine) commit(c *graph.CSR, seq uint64, round int64, off []int64, total int64) error {
	t := e.T
	runs := append([][]sim.OutMsg(nil), e.sc.out...)

	if t.Self() != 0 {
		body, err := e.encodeShard(seq, round, runs)
		if err != nil {
			return err
		}
		if err := t.Send(0, frameCkpt, body); err != nil {
			return err
		}
		if err := t.Flush(0); err != nil {
			return err
		}
		typ, payload, err := t.Recv(0)
		if err != nil {
			return err
		}
		if typ != frameCkptAck {
			return &FrameError{Type: typ, Reason: fmt.Sprintf("coordinator sent frame type %d at a checkpoint barrier", typ)}
		}
		ackSeq, ackRound, err := parseCkptAck(payload)
		if err != nil {
			return err
		}
		if ackSeq != seq || ackRound != round {
			return &FrameError{Type: typ, Reason: fmt.Sprintf("checkpoint ack for run %d round %d, expected run %d round %d", ackSeq, ackRound, seq, round)}
		}
		return nil
	}

	merged := sim.NewReport()
	merged.MergeParallel(e.sc.runner.Report())
	for q := 1; q < t.Procs(); q++ {
		peerRuns, err := e.takeShard(c, q, frameCkpt, seq, round, merged)
		if err != nil {
			return err
		}
		runs = append(runs, peerRuns...)
	}

	// The in-process engine's capture, so the file matches byte for byte.
	pending, err := placePending(runs, off, total)
	if err != nil {
		return err
	}
	ck, err := sim.Capture(c, round, merged, e.sc.runner.Protos(), pending)
	if err != nil {
		return err
	}
	if err := e.Checkpoint.Store(ck); err != nil {
		return err
	}
	for q := 1; q < t.Procs(); q++ {
		if err := t.Send(q, frameCkptAck, appendCkptAck(nil, seq, round)); err != nil {
			return err
		}
	}
	return t.FlushAll()
}

// placePending builds the frozen round's pending slab from delivery runs
// by rank placement, the same arithmetic as the round splice: each record
// goes to slot off[Parent] + Pos, so the runs need no merge. A record
// outside its parent's block of slots, a slot filled twice or a slot left
// empty is a typed *FrameError; a corrupt upload never commits a file with
// a hole.
// A filled slot is one with an opcode: every delivery the protocols send
// carries a registered one.
func placePending(runs [][]sim.OutMsg, off []int64, total int64) ([]sim.PendingDelivery, error) {
	pending := make([]sim.PendingDelivery, total)
	placed := int64(0)
	for _, run := range runs {
		for _, m := range run {
			if m.Parent < 0 || m.Parent >= int64(len(off)) {
				return nil, &FrameError{Type: frameCkpt, Reason: fmt.Sprintf("pending delivery parent rank %d outside the %d-rank space", m.Parent, len(off))}
			}
			rank, end := off[m.Parent]+int64(m.Pos), total
			if m.Parent+1 < int64(len(off)) {
				end = off[m.Parent+1]
			}
			if m.Pos < 0 || rank >= end {
				return nil, &FrameError{Type: frameCkpt, Reason: fmt.Sprintf("pending delivery (%d, %d) lies beyond its parent's sends", m.Parent, m.Pos)}
			}
			if pending[rank].Msg.Op != sim.OpNone {
				return nil, &FrameError{Type: frameCkpt, Reason: fmt.Sprintf("pending delivery rank %d filled twice", rank)}
			}
			pending[rank] = sim.PendingDelivery{From: m.From, To: m.To, Msg: m.Msg}
			placed++
		}
	}
	if placed != total {
		return nil, &FrameError{Type: frameCkpt, Reason: fmt.Sprintf("checkpoint gathered %d of %d pending deliveries", placed, total)}
	}
	return pending, nil
}

var _ sim.ResumableEngine = (*DistEngine)(nil)
