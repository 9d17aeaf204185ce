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
// All processes of one run must be constructed with identical Owner,
// MaxMessages and Checkpoint.Round/Every configuration — the topology
// config file is that single source of truth for cmd/mdstd.
type DistEngine struct {
	// T is the established transport mesh.
	T *Transport
	// Owner maps every dense node to its owning process.
	Owner []int32
	// MaxMessages aborts the run when exceeded, checked at barrier
	// granularity with the same outcome as EventEngine's per-delivery
	// check (0 means sim.DefaultMaxMessages).
	MaxMessages int64
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
	sc roundScratch
}

// roundScratch is the persistent round arena. All slabs are engine-
// goroutine-only and sized by the high-water mark of the rounds driven so
// far.
type roundScratch struct {
	cnt   []int64        // rank slab: counts scattered, prefix-summed into offsets
	base  []int64        // per-parent local placement cursors for the splice
	inbox []sim.OutMsg   // spliced global-order delivery plane handed to PlayRound
	enc   [][]byte       // per-peer frame encode slabs
	rx    [][]sim.OutMsg // per-peer decoded-batch slabs
	act   []bool         // next-round activity: the union of the activity sets heard this step
	own   []int32        // this process's activity set: the processes it queued records for

	states     []ownedState // owned-state headers for the all-gather / checkpoint
	stateBytes []byte       // arena behind the states' blobs

	runner sim.DistScratch // the runner's recycled slabs (protos, contexts, outboxes)
}

// begin readies the per-process tables for one barrier step: activity
// marks cleared and peer batch slabs emptied, since a step that hears
// from only some peers splices only theirs.
func (s *roundScratch) begin(procs int) {
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
func (s *roundScratch) slabs(rankSpace int64) []int64 {
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

// grownInbox returns an n-record view of the inbox slab.
func (s *roundScratch) grownInbox(n int) []sim.OutMsg {
	if cap(s.inbox) < n {
		grow := 2 * cap(s.inbox)
		if grow < n {
			grow = n
		}
		s.inbox = make([]sim.OutMsg, grow)
	}
	return s.inbox[:n]
}

// barrierState is what a process knows once a barrier closes.
type barrierState struct {
	round     int64        // the round the barrier closed (0: Init)
	off       []int64      // next round's rank offsets (aliasing engine scratch)
	total     int64        // next round's global delivery count
	inbox     []sim.OutMsg // this process's next-round deliveries, in global order
	delivered int64        // the cluster's cumulative delivered count
	stop      bool         // the barrier agreed a graceful stop
	active    int          // processes with deliveries next round
	lone      int          // the active process when active == 1
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

// capTrips is EventEngine's cap predicate at barrier granularity: the run
// fails exactly when delivering the pending messages would exceed the cap.
// delivered and total are barrier-agreed values, so every process takes
// the same branch.
func capTrips(delivered, total, maxMsgs int64) bool {
	return delivered > maxMsgs || (delivered >= maxMsgs && total > 0)
}

// nextForced returns the first round after round whose barrier commits or
// freezes a checkpoint, or -1 when none is armed. Every process knows
// these rounds in advance, and their barriers are always full exchanges.
func (e *DistEngine) nextForced(round int64) int64 {
	spec := e.Checkpoint
	switch {
	case spec == nil:
		return -1
	case spec.Every > 0:
		return (round/spec.Every + 1) * spec.Every
	case spec.Round > round:
		return spec.Round
	}
	return -1
}

// forcedAt reports whether round's barrier is a forced full barrier.
func (e *DistEngine) forcedAt(round int64) bool { return e.nextForced(round-1) == round }

// Run executes the protocol to quiescence across the mesh. The runner
// already addresses every node's state densely and the final all-gather
// writes peer states into that same slice, so it is the result. It is
// recycled by the engine: the slice stays valid until the engine's next
// Run or Resume.
func (e *DistEngine) Run(c *graph.CSR, f sim.Factory) ([]sim.Protocol, *sim.Report, error) {
	return denseResult(e.run(c, f, nil))
}

// Resume continues a checkpointed run: every process decodes the full
// frozen state plane from ck (each process reads the checkpoint file
// itself — there is no state redistribution), takes over the pending
// deliveries it owns, and the run proceeds exactly as if never stopped.
func (e *DistEngine) Resume(c *graph.CSR, f sim.Factory, ck *sim.Checkpoint) ([]sim.Protocol, *sim.Report, error) {
	if ck == nil {
		return nil, nil, &sim.CheckpointError{Reason: "nil checkpoint"}
	}
	return denseResult(e.run(c, f, ck))
}

// denseResult unwraps a finished run into the dense result.
func denseResult(r *sim.DistRunner, rep *sim.Report, err error) ([]sim.Protocol, *sim.Report, error) {
	if err != nil {
		return nil, nil, err
	}
	return r.Protos(), rep, nil
}

func (e *DistEngine) run(c *graph.CSR, f sim.Factory, ck *sim.Checkpoint) (r *sim.DistRunner, rep *sim.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, rep = nil, nil
			err = fmt.Errorf("sim: protocol panic: %v", p)
		}
	}()
	start := time.Now()
	t := e.T
	self := t.Self()
	if len(e.Owner) != c.N() {
		return nil, nil, fmt.Errorf("net: owner table covers %d nodes, snapshot has %d", len(e.Owner), c.N())
	}
	maxMsgs := e.MaxMessages
	if maxMsgs == 0 {
		maxMsgs = sim.DefaultMaxMessages
	}
	e.seq++
	seq := e.seq
	r = sim.NewDistRunnerScratch(c, e.Owner, t.Procs(), self, f, &e.sc.runner)
	// Harvest the runner's slabs for the next run once this one ends
	// (bound to the runner now, so the recover path's r=nil cannot skip
	// it). Results returned to the caller stay valid until that next run.
	defer r.Release(&e.sc.runner)

	var st barrierState
	if ck == nil {
		r.PlayInit()
		if err := e.fullBarrier(r, seq, &st, int64(c.N()), -1); err != nil {
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
		// and the owned records carry their rank directly. Every process
		// reads the whole slab, so every process derives the first round's
		// activity from it.
		if err := ck.ValidateAgainst(c); err != nil {
			return nil, nil, err
		}
		if err := ck.RestoreStates(r.Protos()); err != nil {
			return nil, nil, err
		}
		if self == 0 {
			ck.RestoreCounters(r.Report())
		}
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
				st.inbox = append(st.inbox, sim.OutMsg{Parent: int64(i), From: p.From, To: p.To, Msg: p.Msg})
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
				if err := e.commit(r, c, seq, st.round, st.off, st.total); err != nil {
					return nil, nil, decorateBarrier(err, st.round)
				}
			}
			return nil, nil, sim.ErrStopped
		}
		if spec != nil && ck == nil && e.forcedAt(st.round) {
			if err := e.commit(r, c, seq, st.round, st.off, st.total); err != nil {
				return nil, nil, decorateBarrier(err, st.round)
			}
			if spec.Every == 0 {
				return nil, nil, sim.ErrCheckpointed
			}
			// Periodic cadence: the commit's counter capture folded and
			// detached the report's dense sender slab; the run continues,
			// so re-arm it for the rounds after the recovery point.
			r.RearmFast()
		}
		if capTrips(st.delivered, st.total, maxMsgs) {
			return nil, nil, sim.NewBudgetError(st.delivered, maxMsgs)
		}
		if st.total == 0 {
			break
		}
		prev := st.round
		if st.active == 1 && st.lone != self {
			err = e.awaitLone(r, seq, &st)
		} else {
			st.round++
			r.PlayRound(st.round, st.inbox)
			rankSpace := st.total
			st.delivered += rankSpace
			if st.active == 1 && !e.forcedAt(st.round) {
				err = e.soloBarrier(r, seq, &st, rankSpace, maxMsgs)
			} else {
				err = e.fullBarrier(r, seq, &st, rankSpace, -1)
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
	rep, err = e.finish(r, seq, st.round, start)
	return r, rep, err
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
func (e *DistEngine) markOwn(r *sim.DistRunner) bool {
	self := e.T.Self()
	own := e.sc.own[:0]
	peers := false
	for q := range e.sc.act {
		if len(r.Outbox(q)) > 0 {
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
func (e *DistEngine) sendRound(r *sim.DistRunner, h roundHeader) error {
	t := e.T
	for q := 0; q < t.Procs(); q++ {
		if q == t.Self() {
			continue
		}
		body := appendRoundHeader(e.sc.enc[q][:0], h, e.sc.own, r.Counts())
		hdr := len(body)
		body = appendRoundBatch(body, r.Outbox(q), t.Table())
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
func (e *DistEngine) fullBarrier(r *sim.DistRunner, seq uint64, st *barrierState, rankSpace int64, have int) error {
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
	e.markOwn(r)
	h := roundHeader{seq: seq, round: st.round, flags: e.stopFlags(), rankSpace: rankSpace, delivered: st.delivered}
	if err := e.sendRound(r, h); err != nil {
		return err
	}
	// Scatter the local counts (trusted: ranks come from this process's own
	// prefix sums), then each peer's — decodeRound scatters and
	// bounds-checks while parsing, straight into the slab.
	cnt := e.sc.cnt[:rankSpace]
	for _, c := range r.Counts() {
		cnt[c.Rank] = c.Count
	}
	covered += int64(len(r.Counts()))
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
		covered += cov
	}
	if covered != rankSpace {
		return &FrameError{Type: frameRound, Reason: fmt.Sprintf("barrier covered %d of %d delivery ranks", covered, rankSpace)}
	}
	st.stop = stop
	return e.splice(r, st, rankSpace)
}

// soloBarrier closes a round this process played alone. Its counts cover
// the whole rank space, so it computes the offsets and its next inbox
// locally, and it sends a frame — to every peer — only when one must
// hear: it queued records for a peer, the run goes quiescent, the message
// cap trips, or it latched a stop. Forced barriers never come here.
func (e *DistEngine) soloBarrier(r *sim.DistRunner, seq uint64, st *barrierState, rankSpace, maxMsgs int64) error {
	counts := r.Counts()
	if int64(len(counts)) != rankSpace {
		return &FrameError{Type: frameRound, Reason: fmt.Sprintf("solo round played %d of %d deliveries", len(counts), rankSpace)}
	}
	e.sc.begin(e.T.Procs())
	cnt := e.sc.slabs(rankSpace)
	for _, c := range counts {
		cnt[c.Rank] = c.Count
	}
	peers := e.markOwn(r)
	flags := e.stopFlags()
	st.stop = flags&roundFlagStop != 0
	if err := e.splice(r, st, rankSpace); err != nil {
		return err
	}
	if peers || st.total == 0 || st.stop || capTrips(st.delivered, st.total, maxMsgs) {
		return e.sendRound(r, roundHeader{seq: seq, round: st.round, flags: flags, rankSpace: rankSpace, delivered: st.delivered})
	}
	return nil
}

// awaitLone is the step of a process idle in a peer's solo stretch: it
// plays nothing and blocks for the lone process's next frame, whatever
// round that frame closes, adopting the frame's round, rank space,
// counts, delivered count, stop flag and activity set. A frame closing a
// forced barrier continues into the full exchange.
func (e *DistEngine) awaitLone(r *sim.DistRunner, seq uint64, st *barrierState) error {
	lone := st.lone
	// The sends of the last round this process played were delivered at
	// the barrier that closed it.
	r.Idle()
	e.sc.begin(e.T.Procs())
	x := roundExpect{seq: seq, round: st.round, solo: true, limit: e.nextForced(st.round)}
	h, _, err := e.recvRound(lone, &x)
	if err != nil {
		return err
	}
	st.round, st.delivered = h.round, h.delivered
	st.stop = h.flags&roundFlagStop != 0
	if e.forcedAt(h.round) {
		return e.fullBarrier(r, seq, st, h.rankSpace, lone)
	}
	return e.splice(r, st, h.rankSpace)
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
// global rank (off[Parent] + Pos) into the Parent field. Block order
// follows parent rank and within-parent order follows the run, so the
// inbox is exactly the canonical (Parent, Pos) delivery order — in
// O(records + rankSpace) with zero comparisons and, after warm-up, zero
// allocations. The inbox aliases engine scratch and is valid until the
// next barrier.
func (e *DistEngine) splice(r *sim.DistRunner, st *barrierState, rankSpace int64) error {
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
	nrec := len(r.Outbox(self))
	for _, m := range r.Outbox(self) {
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
	inbox := e.sc.grownInbox(nrec)
	place := func(m sim.OutMsg) {
		slot := base[m.Parent]
		base[m.Parent]++
		m.Parent = cnt[m.Parent] + int64(m.Pos)
		inbox[slot] = m
	}
	for _, m := range r.Outbox(self) {
		place(m)
	}
	for q, rx := range e.sc.rx {
		for _, m := range rx {
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
	st.off, st.total, st.inbox = cnt, total, inbox
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
func (e *DistEngine) encodeShard(r *sim.DistRunner, seq uint64, round int64, runs [][]sim.OutMsg) ([]byte, error) {
	t := e.T
	states := e.sc.states[:0]
	buf := e.sc.stateBytes[:0]
	for _, v := range r.Owned() {
		n0 := len(buf)
		var err error
		if buf, err = sim.AppendProtocolState(buf, r.Protos()[v], t.Table().Enc); err != nil {
			return nil, err
		}
		states = append(states, ownedState{dense: v, blob: buf[n0:len(buf):len(buf)]})
	}
	e.sc.states, e.sc.stateBytes = states, buf
	var cb sim.Checkpoint
	cb.CaptureCounters(r.Report())
	return appendShard(nil, seq, round, &cb, states, runs, t.Table()), nil
}

// takeShard takes in peer q's shard, a frame of type typ for run seq
// frozen at round: it merges the shard's counters into merged, decodes
// its states into the local instances (each node checked against the
// owner table) and returns its delivery runs.
func (e *DistEngine) takeShard(r *sim.DistRunner, q int, typ byte, seq uint64, round int64, merged *sim.Report) ([][]sim.OutMsg, error) {
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
	peerRep := sim.NewReport()
	m.counters.RestoreCounters(peerRep)
	merged.MergeParallel(peerRep)
	for _, s := range m.states {
		if int(s.dense) >= len(e.Owner) || e.Owner[s.dense] != int32(q) {
			return nil, &FrameError{Type: typ, Reason: fmt.Sprintf("process %d sent the state of node %d it does not own", q, s.dense)}
		}
		if err := sim.DecodeProtocolState(r.Protos()[s.dense], s.blob, t.Table().Dec); err != nil {
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
func (e *DistEngine) finish(r *sim.DistRunner, seq uint64, round int64, start time.Time) (*sim.Report, error) {
	t := e.T
	self := t.Self()
	body, err := e.encodeShard(r, seq, round, nil)
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
	merged.MergeParallel(r.Report())
	for q := 0; q < t.Procs(); q++ {
		if q == self {
			continue
		}
		runs, err := e.takeShard(r, q, frameFinal, seq, round, merged)
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
func (e *DistEngine) commit(r *sim.DistRunner, c *graph.CSR, seq uint64, round int64, off []int64, total int64) error {
	t := e.T
	runs := make([][]sim.OutMsg, t.Procs())
	for d := range runs {
		runs[d] = r.Outbox(d)
	}

	if t.Self() != 0 {
		body, err := e.encodeShard(r, seq, round, runs)
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

	if e.Checkpoint.Sink == nil && e.Checkpoint.W == nil {
		return &sim.CheckpointError{Reason: "coordinator has no checkpoint writer"}
	}
	merged := sim.NewReport()
	merged.MergeParallel(r.Report())
	for q := 1; q < t.Procs(); q++ {
		peerRuns, err := e.takeShard(r, q, frameCkpt, seq, round, merged)
		if err != nil {
			return err
		}
		runs = append(runs, peerRuns...)
	}

	// The exact in-process capture sequence, so the file's internal opcode
	// numbering — fixed by state-encoding order — matches byte for byte.
	ck := &sim.Checkpoint{Round: round, N: c.N(), HalfEdges: c.HalfEdges()}
	ck.CaptureCounters(merged)
	if err := ck.EncodeStates(r.Protos()); err != nil {
		return err
	}
	var err error
	if ck.Pending, err = placePending(runs, off, total); err != nil {
		return err
	}
	if sink := e.Checkpoint.Sink; sink != nil {
		if err := sink.Commit(round, ck.Write); err != nil {
			return err
		}
	} else if err := ck.Write(e.Checkpoint.W); err != nil {
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
