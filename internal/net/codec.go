package net

import (
	"fmt"

	"mdegst/internal/sim"
)

// Frame payload codecs. Every multi-byte payload is varint-packed behind
// the frame's type byte; element counts are bounded by the remaining
// payload bytes before allocation, and wire records translate their
// opcodes through the handshake's canonical table, so a malformed or
// skewed frame fails with a typed *FrameError instead of corrupting a
// run or taking the process down (FuzzFrameCodec pins this).
//
// Round frames are pre-ranked runs (DESIGN.md §13): the (rank, count)
// header entries are strictly ascending in rank and the delivery batch is
// strictly ascending in its (Parent, Pos) merge key — both facts fall out
// of senders playing deliveries in canonical rank order — so both are
// delta-encoded. Consecutive ranks cost one byte instead of an absolute
// varint, which matters because every process broadcasts its full count
// list to every peer: on round-dominated workloads the header is most of
// the wire traffic. The sorted-run invariant is structural on the encode
// side and enforced on the decode side — a zero rank delta or a zero
// same-parent position delta is a typed *FrameError, so a corrupt peer can
// never smuggle an out-of-order run past the receiver's splice.
//
// Accumulated values are bounded during decode (ranks, parents, rank
// spaces and delivered counts below 1<<62, positions in int32, endpoints
// in int31, counts below 1<<32) so hostile deltas cannot overflow the
// receiver's prefix sums or indices.

// Decode-side bounds for accumulated delta values.
const (
	limitRank  = int64(1) << 62 // rank / parent accumulator bound
	limitCount = int64(1) << 32 // per-delivery send count bound
	limitPos   = int64(1<<31 - 1)
	limitNode  = uint64(1<<31 - 1)
)

// roundFlagStop is the graceful-stop bit of a round frame's flags: the
// sender has a stop request latched. Every process ORs the flags of the
// frames it heard at a barrier, so the cluster agrees on the stop at the
// same barrier.
const roundFlagStop = uint64(1)

// roundHeader is the control prefix of a round frame: the run and round
// the frame closes, the sender's control flags, the round's rank space
// (its global delivery count) and the cluster's cumulative delivered
// count through that round. On the wire the sender's next-round activity
// set follows it — the processes it queued records for, itself included —
// which is how every process learns whether the next round is a solo
// round (DESIGN.md §13).
type roundHeader struct {
	seq       uint64
	round     int64
	flags     uint64
	rankSpace int64
	delivered int64
}

// appendRoundHeader encodes the control prefix, the activity set
// (strictly ascending process ids) and the delta-encoded (rank, count)
// header; the split from the batch encoder lets the engine meter header
// bytes separately (NetStats.HeaderBytes). The first count entry carries
// its rank absolutely; each later entry carries rank - prevRank, which
// the strictly-ascending invariant keeps positive (and usually 1).
func appendRoundHeader(b []byte, h roundHeader, active []int32, counts []sim.RankCount) []byte {
	b = appendUvarint(b, h.seq)
	b = appendVarint(b, h.round)
	b = appendUvarint(b, h.flags)
	b = appendUvarint(b, uint64(h.rankSpace))
	b = appendUvarint(b, uint64(h.delivered))
	b = appendUvarint(b, uint64(len(active)))
	for _, q := range active {
		b = appendUvarint(b, uint64(q))
	}
	b = appendUvarint(b, uint64(len(counts)))
	prev := int64(0)
	for i, c := range counts {
		if i == 0 {
			b = appendUvarint(b, uint64(c.Rank))
		} else {
			b = appendUvarint(b, uint64(c.Rank-prev))
		}
		b = appendUvarint(b, uint64(c.Count))
		prev = c.Rank
	}
	return b
}

// decodeRoundHeader parses a round frame's control prefix and activity
// set, marking every process the set names in act — one entry per
// cluster process, so a name outside the cluster is a typed error.
func decodeRoundHeader(r *sim.Cursor, act []bool) (roundHeader, error) {
	h := roundHeader{seq: r.Uvarint(), round: r.Varint(), flags: r.Uvarint(),
		rankSpace: readRank(r, "rank space"), delivered: readRank(r, "delivered count")}
	prev := int64(-1)
	for i, n := 0, r.Count(1); i < n; i++ {
		q := r.Uvarint()
		if q >= uint64(len(act)) {
			return h, r.Fail(fmt.Sprintf("activity set names process %d of a %d-process cluster", q, len(act)))
		}
		if int64(q) <= prev {
			return h, r.Fail("activity set not strictly ascending")
		}
		prev = int64(q)
		act[q] = true
	}
	return h, r.Err()
}

// countsDecoder accumulates the header's rank deltas, rejecting
// non-ascending or overflowing input with typed errors.
type countsDecoder struct {
	prev  int64
	first bool
}

func newCountsDecoder() countsDecoder { return countsDecoder{first: true} }

func (d *countsDecoder) next(r *sim.Cursor) (sim.RankCount, error) {
	dv := r.Uvarint()
	rank := int64(dv)
	if !d.first {
		if dv == 0 {
			return sim.RankCount{}, r.Fail("rank header not strictly ascending")
		}
		rank = d.prev + int64(dv)
	}
	if dv >= uint64(limitRank) || rank >= limitRank {
		return sim.RankCount{}, r.Fail("rank header outside the rank bound")
	}
	cv := r.Uvarint()
	if cv >= uint64(limitCount) {
		return sim.RankCount{}, r.Fail("send count outside the count bound")
	}
	d.first, d.prev = false, rank
	return sim.RankCount{Rank: rank, Count: int64(cv)}, r.Err()
}

// appendRoundBatch encodes the delivery batch destined to one peer as one
// pre-ranked run: records strictly ascending by (Parent, Pos). The first
// record is absolute; later records carry the parent delta and, within a
// parent (delta 0), the position delta — the common consecutive-send case
// costs two bytes of key instead of up to ten.
func appendRoundBatch(b []byte, batch []sim.OutMsg, t *WireTable) []byte {
	b = appendUvarint(b, uint64(len(batch)))
	prevParent, prevPos := int64(0), int64(0)
	for i, m := range batch {
		switch {
		case i == 0:
			b = appendUvarint(b, uint64(m.Parent))
			b = appendUvarint(b, uint64(m.Pos))
		case m.Parent == prevParent:
			b = appendUvarint(b, 0)
			b = appendUvarint(b, uint64(int64(m.Pos)-prevPos))
		default:
			b = appendUvarint(b, uint64(m.Parent-prevParent))
			b = appendUvarint(b, uint64(m.Pos))
		}
		prevParent, prevPos = m.Parent, int64(m.Pos)
		b = appendUvarint(b, uint64(m.From))
		b = appendUvarint(b, uint64(m.To))
		b = sim.AppendWire(b, m.Msg, t.Enc)
	}
	return b
}

// batchDecoder accumulates the batch's key deltas, rejecting runs that are
// not strictly key-sorted (a zero same-parent position delta) and any
// accumulator overflow with typed errors.
type batchDecoder struct {
	prevParent, prevPos int64
	first               bool
}

func newBatchDecoder() batchDecoder { return batchDecoder{first: true} }

func (d *batchDecoder) next(r *sim.Cursor, t *WireTable, m *sim.OutMsg) error {
	dp, dv := r.Uvarint(), r.Uvarint()
	if dp >= uint64(limitRank) || dv > uint64(limitPos) {
		return r.Fail("batch key outside the rank and position bounds")
	}
	parent, pos := int64(dp), int64(dv)
	switch {
	case d.first:
		d.first = false
	case dp == 0:
		if dv == 0 {
			return r.Fail("batch not strictly key-sorted")
		}
		parent, pos = d.prevParent, d.prevPos+pos
	default:
		parent += d.prevParent
	}
	if parent >= limitRank || pos > limitPos {
		return r.Fail("batch key outside the rank and position bounds")
	}
	d.prevParent, d.prevPos = parent, pos
	from, to := r.Uvarint(), r.Uvarint()
	if from > limitNode || to > limitNode {
		return r.Fail("batch endpoint outside the node bound")
	}
	*m = sim.OutMsg{Parent: parent, Pos: int32(pos), From: int32(from), To: int32(to), Msg: r.Wire(t.Dec)}
	return r.Err()
}

// roundExpect is what the local barrier knows when it decodes a peer's
// round frame. At a full barrier the frame must close exactly the local
// round, with the local rank space and delivered count. A process idle
// in a peer's solo stretch (solo) knows only the last round it closed and
// the next forced barrier (limit, -1 for none): the frame may close any
// round after the first and up to the second, and its counts alone must
// cover the rank space it declares.
type roundExpect struct {
	seq       uint64
	round     int64
	rankSpace int64
	delivered int64
	solo      bool
	limit     int64
}

// check validates a decoded header from process q against the local
// barrier.
func (x *roundExpect) check(q int, h roundHeader) error {
	fail := func(format string, args ...any) error {
		return &FrameError{Type: frameRound, Reason: fmt.Sprintf("process %d: ", q) + fmt.Sprintf(format, args...)}
	}
	switch {
	case h.seq != x.seq:
		return fail("frame for run %d, local run is %d", h.seq, x.seq)
	case x.solo && h.round <= x.round:
		return fail("frame for round %d, not after the local round %d", h.round, x.round)
	case x.solo && x.limit >= 0 && h.round > x.limit:
		return fail("frame for round %d passes the forced barrier at round %d", h.round, x.limit)
	case x.solo:
		return nil
	case h.round != x.round:
		return fail("frame for round %d, local barrier is round %d", h.round, x.round)
	case h.rankSpace != x.rankSpace:
		return fail("rank space %d disagrees with the local barrier's %d", h.rankSpace, x.rankSpace)
	case h.delivered != x.delivered:
		return fail("delivered count %d disagrees with the local barrier's %d", h.delivered, x.delivered)
	}
	return nil
}

// decodeRound is the engine's zero-copy decode of process q's round
// frame: the activity set marks into the step's activity slab, the
// header's counts scatter straight into the barrier's persistent rank
// slab (bounds-checked against the round's rank space) and the batch
// records append into q's reusable slab, so an unperturbed barrier
// allocates nothing. A solo-mode decode adopts the frame's rank space,
// growing the rank slab to it — bounded first by the frame's own length,
// since every count entry costs at least two bytes. Returns the header
// and its count-entry total for the barrier's coverage cross-check. On
// any error the scratch contents are unspecified — the caller aborts the
// run.
func (s *arena) decodeRound(q int, payload []byte, t *WireTable, x *roundExpect) (roundHeader, int64, error) {
	r := frameCursor(frameRound, payload)
	h, err := decodeRoundHeader(&r, s.act)
	if err != nil {
		return h, 0, err
	}
	if err := x.check(q, h); err != nil {
		return h, 0, err
	}
	rankSpace := x.rankSpace
	if x.solo {
		if h.rankSpace > int64(r.Len())/2 {
			return h, 0, r.Fail(fmt.Sprintf("solo frame cannot cover its %d-delivery rank space", h.rankSpace))
		}
		rankSpace = h.rankSpace
		s.slabs(rankSpace)
	}
	cnt := s.cnt[:rankSpace]
	nc := r.Count(2)
	if x.solo && int64(nc) != rankSpace {
		return h, 0, r.Fail(fmt.Sprintf("solo frame covers %d of its %d delivery ranks", nc, rankSpace))
	}
	cd := newCountsDecoder()
	for i := 0; i < nc; i++ {
		c, err := cd.next(&r)
		if err != nil {
			return h, 0, err
		}
		if c.Rank >= rankSpace {
			return h, 0, r.Fail(fmt.Sprintf("rank %d outside the round's %d-delivery rank space", c.Rank, rankSpace))
		}
		cnt[c.Rank] = c.Count
	}
	nb := r.Count(5)
	out := s.rx[q][:0]
	bd := newBatchDecoder()
	var rec sim.OutMsg
	for i := 0; i < nb; i++ {
		if err := bd.next(&r, t, &rec); err != nil {
			return h, 0, err
		}
		if rec.Parent >= rankSpace {
			return h, 0, r.Fail(fmt.Sprintf("batch parent rank %d outside the round's %d-delivery rank space", rec.Parent, rankSpace))
		}
		out = append(out, rec)
	}
	s.rx[q] = out
	if err := r.Done(); err != nil {
		return h, 0, err
	}
	return h, int64(nc), nil
}

// parseBatch materializes one pre-ranked delivery run of a shard.
func parseBatch(r *sim.Cursor, t *WireTable) ([]sim.OutMsg, error) {
	batch := make([]sim.OutMsg, r.Count(5))
	bd := newBatchDecoder()
	for i := range batch {
		if err := bd.next(r, t, &batch[i]); err != nil {
			return nil, err
		}
	}
	return batch, r.Err()
}

// ownedState pairs a dense node index with its encoded protocol state.
type ownedState struct {
	dense int32
	blob  []byte
}

// shard is one process's share of a frozen run, the one payload of both
// the final all-gather frame and the checkpoint upload: the run and round
// it freezes, the process's report counters (sim's counters block, with
// canonical table opcodes), the encoded states of the nodes it owns, and
// its outbox as one key-sorted delivery run per destination process. A
// final frame carries zero runs.
type shard struct {
	seq      uint64
	round    int64
	counters sim.Checkpoint
	states   []ownedState
	runs     [][]sim.OutMsg
}

func appendShard(b []byte, seq uint64, round int64, ck *sim.Checkpoint, states []ownedState, runs [][]sim.OutMsg, t *WireTable) []byte {
	b = appendUvarint(b, seq)
	b = appendVarint(b, round)
	b = ck.AppendCounters(b, t.Enc)
	b = appendUvarint(b, uint64(len(states)))
	for _, s := range states {
		b = appendUvarint(b, uint64(s.dense))
		b = appendUvarint(b, uint64(len(s.blob)))
		b = append(b, s.blob...)
	}
	b = appendUvarint(b, uint64(len(runs)))
	for _, run := range runs {
		b = appendRoundBatch(b, run, t)
	}
	return b
}

// parseShard decodes a shard payload of frame type typ (frameFinal or
// frameCkpt). Each run must be strictly key-sorted, like a round batch.
func parseShard(typ byte, payload []byte, t *WireTable) (*shard, error) {
	r := frameCursor(typ, payload)
	m := &shard{seq: r.Uvarint(), round: r.Varint()}
	m.counters.ReadCounters(&r, t.Dec)
	m.states = make([]ownedState, r.Count(2))
	for i := range m.states {
		dense := r.Uvarint()
		if dense > limitNode {
			return nil, r.Fail("state node outside the node bound")
		}
		m.states[i] = ownedState{dense: int32(dense), blob: r.Bytes(r.Uvarint())}
	}
	m.runs = make([][]sim.OutMsg, r.Count(1))
	for i := range m.runs {
		var err error
		if m.runs[i], err = parseBatch(&r, t); err != nil {
			return nil, err
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ckptAck is the coordinator's commit acknowledgement: the checkpoint file
// for (seq, round) hit stable storage, peers may stop.
func appendCkptAck(b []byte, seq uint64, round int64) []byte {
	b = appendUvarint(b, seq)
	return appendVarint(b, round)
}

func parseCkptAck(payload []byte) (seq uint64, round int64, err error) {
	r := frameCursor(frameCkptAck, payload)
	seq, round = r.Uvarint(), r.Varint()
	return seq, round, r.Done()
}
