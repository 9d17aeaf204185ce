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

// roundMsg is one process's barrier contribution, materialised: the
// header, the activity set, the (rank, send count) pairs of the
// deliveries the sender played, and the delivery batch destined to the
// receiving process.
type roundMsg struct {
	roundHeader
	active []int32
	counts []sim.RankCount
	batch  []sim.OutMsg
}

func appendRoundMsg(b []byte, h roundHeader, active []int32, counts []sim.RankCount, batch []sim.OutMsg, t *WireTable) []byte {
	b = appendRoundHeader(b, h, active, counts)
	return appendRoundBatch(b, batch, t)
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
func decodeRoundHeader(r *frameReader, act []bool) (roundHeader, error) {
	var h roundHeader
	var err error
	if h.seq, err = r.uvarint(); err != nil {
		return h, err
	}
	if h.round, err = r.varint(); err != nil {
		return h, err
	}
	if h.flags, err = r.uvarint(); err != nil {
		return h, err
	}
	if h.rankSpace, err = r.rank("rank space"); err != nil {
		return h, err
	}
	if h.delivered, err = r.rank("delivered count"); err != nil {
		return h, err
	}
	n, err := r.count(1)
	if err != nil {
		return h, err
	}
	prev := int64(-1)
	for i := 0; i < n; i++ {
		q, err := r.uvarint()
		if err != nil {
			return h, err
		}
		if q >= uint64(len(act)) {
			return h, r.fail(fmt.Sprintf("activity set names process %d of a %d-process cluster", q, len(act)))
		}
		if int64(q) <= prev {
			return h, r.fail("activity set not strictly ascending")
		}
		prev = int64(q)
		act[q] = true
	}
	return h, nil
}

// countsDecoder accumulates the header's rank deltas, rejecting
// non-ascending or overflowing input with typed errors.
type countsDecoder struct {
	prev  int64
	first bool
}

func newCountsDecoder() countsDecoder { return countsDecoder{first: true} }

func (d *countsDecoder) next(r *frameReader) (sim.RankCount, error) {
	dv, err := r.uvarint()
	if err != nil {
		return sim.RankCount{}, err
	}
	var rank int64
	if d.first {
		if dv >= uint64(limitRank) {
			return sim.RankCount{}, r.fail("rank header outside the rank bound")
		}
		rank = int64(dv)
		d.first = false
	} else {
		if dv == 0 {
			return sim.RankCount{}, r.fail("rank header not strictly ascending")
		}
		if dv >= uint64(limitRank) || d.prev+int64(dv) >= limitRank {
			return sim.RankCount{}, r.fail("rank header outside the rank bound")
		}
		rank = d.prev + int64(dv)
	}
	cv, err := r.uvarint()
	if err != nil {
		return sim.RankCount{}, err
	}
	if cv >= uint64(limitCount) {
		return sim.RankCount{}, r.fail("send count outside the count bound")
	}
	d.prev = rank
	return sim.RankCount{Rank: rank, Count: int64(cv)}, nil
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

func (d *batchDecoder) next(r *frameReader, t *WireTable, m *sim.OutMsg) error {
	dp, err := r.uvarint()
	if err != nil {
		return err
	}
	var parent, pos int64
	switch {
	case d.first:
		if dp >= uint64(limitRank) {
			return r.fail("batch parent outside the rank bound")
		}
		parent = int64(dp)
		pv, err := r.uvarint()
		if err != nil {
			return err
		}
		if pv > uint64(limitPos) {
			return r.fail("batch position outside the int32 bound")
		}
		pos = int64(pv)
		d.first = false
	case dp == 0:
		parent = d.prevParent
		dv, err := r.uvarint()
		if err != nil {
			return err
		}
		if dv == 0 {
			return r.fail("batch not strictly key-sorted")
		}
		if dv > uint64(limitPos) || d.prevPos+int64(dv) > limitPos {
			return r.fail("batch position outside the int32 bound")
		}
		pos = d.prevPos + int64(dv)
	default:
		if dp >= uint64(limitRank) || d.prevParent+int64(dp) >= limitRank {
			return r.fail("batch parent outside the rank bound")
		}
		parent = d.prevParent + int64(dp)
		pv, err := r.uvarint()
		if err != nil {
			return err
		}
		if pv > uint64(limitPos) {
			return r.fail("batch position outside the int32 bound")
		}
		pos = int64(pv)
	}
	d.prevParent, d.prevPos = parent, pos
	from, err := r.uvarint()
	if err != nil {
		return err
	}
	to, err := r.uvarint()
	if err != nil {
		return err
	}
	if from > limitNode || to > limitNode {
		return r.fail("batch endpoint outside the node bound")
	}
	wm, used, err := sim.DecodeWire(r.buf[r.at:], t.Dec)
	if err != nil {
		return &FrameError{Type: r.typ, Reason: fmt.Sprintf("wire record: %v", err)}
	}
	r.at += used
	*m = sim.OutMsg{Parent: parent, Pos: int32(pos), From: int32(from), To: int32(to), Msg: wm}
	return nil
}

// parseRoundMsg is the materializing round-frame parser for a cluster of
// procs processes — tests, fuzzing and anything that wants the whole
// frame as values. The engine's hot path uses the streaming decodeRound
// instead.
func parseRoundMsg(payload []byte, t *WireTable, procs int) (*roundMsg, error) {
	r := &frameReader{typ: frameRound, buf: payload}
	act := make([]bool, procs)
	h, err := decodeRoundHeader(r, act)
	if err != nil {
		return nil, err
	}
	m := &roundMsg{roundHeader: h}
	for q, a := range act {
		if a {
			m.active = append(m.active, int32(q))
		}
	}
	nc, err := r.count(2)
	if err != nil {
		return nil, err
	}
	m.counts = make([]sim.RankCount, nc)
	cd := newCountsDecoder()
	for i := range m.counts {
		if m.counts[i], err = cd.next(r); err != nil {
			return nil, err
		}
	}
	if m.batch, err = parseBatch(r, t); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
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
func (s *roundScratch) decodeRound(q int, payload []byte, t *WireTable, x *roundExpect) (roundHeader, int64, error) {
	r := &frameReader{typ: frameRound, buf: payload}
	h, err := decodeRoundHeader(r, s.act)
	if err != nil {
		return h, 0, err
	}
	if err := x.check(q, h); err != nil {
		return h, 0, err
	}
	rankSpace := x.rankSpace
	if x.solo {
		if h.rankSpace > int64(len(r.buf)-r.at)/2 {
			return h, 0, r.fail(fmt.Sprintf("solo frame cannot cover its %d-delivery rank space", h.rankSpace))
		}
		rankSpace = h.rankSpace
		s.slabs(rankSpace)
	}
	cnt := s.cnt[:rankSpace]
	nc, err := r.count(2)
	if err != nil {
		return h, 0, err
	}
	if x.solo && int64(nc) != rankSpace {
		return h, 0, r.fail(fmt.Sprintf("solo frame covers %d of its %d delivery ranks", nc, rankSpace))
	}
	cd := newCountsDecoder()
	for i := 0; i < nc; i++ {
		c, err := cd.next(r)
		if err != nil {
			return h, 0, err
		}
		if c.Rank >= rankSpace {
			return h, 0, r.fail(fmt.Sprintf("rank %d outside the round's %d-delivery rank space", c.Rank, rankSpace))
		}
		cnt[c.Rank] = c.Count
	}
	nb, err := r.count(5)
	if err != nil {
		return h, 0, err
	}
	out := s.rx[q][:0]
	bd := newBatchDecoder()
	var rec sim.OutMsg
	for i := 0; i < nb; i++ {
		if err := bd.next(r, t, &rec); err != nil {
			return h, 0, err
		}
		if rec.Parent >= rankSpace {
			return h, 0, r.fail(fmt.Sprintf("batch parent rank %d outside the round's %d-delivery rank space", rec.Parent, rankSpace))
		}
		out = append(out, rec)
	}
	s.rx[q] = out
	if err := r.done(); err != nil {
		return h, 0, err
	}
	return h, int64(nc), nil
}

// parseBatch materializes one pre-ranked delivery run (checkpoint uploads,
// tests, fuzzing).
func parseBatch(r *frameReader, t *WireTable) ([]sim.OutMsg, error) {
	n, err := r.count(5)
	if err != nil {
		return nil, err
	}
	batch := make([]sim.OutMsg, n)
	bd := newBatchDecoder()
	for i := range batch {
		if err := bd.next(r, t, &batch[i]); err != nil {
			return nil, err
		}
	}
	return batch, nil
}

// counters is the frozen-report block shared by final and checkpoint
// frames: the summable scalars plus the sorted (opcode, round) and
// per-node breakdowns, with opcodes as canonical table indices.
func appendCounters(b []byte, ck *sim.Checkpoint, t *WireTable) []byte {
	b = appendVarint(b, ck.Messages)
	b = appendVarint(b, ck.Words)
	b = appendUvarint(b, uint64(ck.MaxWords))
	b = appendVarint(b, ck.CausalDepth)
	b = appendUvarint(b, uint64(len(ck.KindRounds)))
	for _, kr := range ck.KindRounds {
		b = appendUvarint(b, t.Enc(kr.Op))
		b = appendVarint(b, int64(kr.Round))
		b = appendVarint(b, kr.Count)
	}
	b = appendUvarint(b, uint64(len(ck.SentBy)))
	for _, s := range ck.SentBy {
		b = appendVarint(b, int64(s.Node))
		b = appendVarint(b, s.Count)
	}
	return b
}

func parseCounters(r *frameReader, t *WireTable, ck *sim.Checkpoint) error {
	var err error
	if ck.Messages, err = r.varint(); err != nil {
		return err
	}
	if ck.Words, err = r.varint(); err != nil {
		return err
	}
	mw, err := r.uvarint()
	if err != nil {
		return err
	}
	ck.MaxWords = int(mw)
	if ck.CausalDepth, err = r.varint(); err != nil {
		return err
	}
	nkr, err := r.count(3)
	if err != nil {
		return err
	}
	ck.KindRounds = make([]sim.KindRoundCount, nkr)
	for i := range ck.KindRounds {
		opIdx, err := r.uvarint()
		if err != nil {
			return err
		}
		op, err := t.Dec(opIdx)
		if err != nil {
			return err
		}
		round, err := r.varint()
		if err != nil {
			return err
		}
		count, err := r.varint()
		if err != nil {
			return err
		}
		ck.KindRounds[i] = sim.KindRoundCount{Op: op, Round: int(round), Count: count}
	}
	nsb, err := r.count(2)
	if err != nil {
		return err
	}
	ck.SentBy = make([]sim.SentByCount, nsb)
	for i := range ck.SentBy {
		node, err := r.varint()
		if err != nil {
			return err
		}
		count, err := r.varint()
		if err != nil {
			return err
		}
		ck.SentBy[i] = sim.SentByCount{Node: sim.NodeID(node), Count: count}
	}
	return nil
}

// ownedState pairs a dense node index with its encoded protocol state.
type ownedState struct {
	dense int32
	blob  []byte
}

func appendOwnedStates(b []byte, states []ownedState) []byte {
	b = appendUvarint(b, uint64(len(states)))
	for _, s := range states {
		b = appendUvarint(b, uint64(s.dense))
		b = appendUvarint(b, uint64(len(s.blob)))
		b = append(b, s.blob...)
	}
	return b
}

func parseOwnedStates(r *frameReader) ([]ownedState, error) {
	n, err := r.count(2)
	if err != nil {
		return nil, err
	}
	states := make([]ownedState, n)
	for i := range states {
		dense, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		blen, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		blob, err := r.bytes(blen)
		if err != nil {
			return nil, err
		}
		states[i] = ownedState{dense: int32(dense), blob: blob}
	}
	return states, nil
}

// finalMsg is one process's quiescence all-gather contribution: its report
// counters and the encoded states of the nodes it owns. Receiving all K-1
// finals is also the run's closing barrier — no frame of the next run can
// overtake it on any connection.
type finalMsg struct {
	seq      uint64
	counters sim.Checkpoint
	states   []ownedState
}

func appendFinalMsg(b []byte, seq uint64, ck *sim.Checkpoint, states []ownedState, t *WireTable) []byte {
	b = appendUvarint(b, seq)
	b = appendCounters(b, ck, t)
	return appendOwnedStates(b, states)
}

func parseFinalMsg(payload []byte, t *WireTable) (*finalMsg, error) {
	r := &frameReader{typ: frameFinal, buf: payload}
	m := &finalMsg{}
	var err error
	if m.seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	if err := parseCounters(r, t, &m.counters); err != nil {
		return nil, err
	}
	if m.states, err = parseOwnedStates(r); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// ckptMsg is one process's checkpoint shard, uploaded to the coordinator
// at an armed barrier: counters, owned states and the full key-sorted
// stream of deliveries the process sent into the frozen round.
type ckptMsg struct {
	seq      uint64
	round    int64
	counters sim.Checkpoint
	states   []ownedState
	pending  []sim.OutMsg
}

func appendCkptMsg(b []byte, seq uint64, round int64, ck *sim.Checkpoint, states []ownedState, pending []sim.OutMsg, t *WireTable) []byte {
	b = appendUvarint(b, seq)
	b = appendVarint(b, round)
	b = appendCounters(b, ck, t)
	b = appendOwnedStates(b, states)
	return appendRoundBatch(b, pending, t)
}

func parseCkptMsg(payload []byte, t *WireTable) (*ckptMsg, error) {
	r := &frameReader{typ: frameCkpt, buf: payload}
	m := &ckptMsg{}
	var err error
	if m.seq, err = r.uvarint(); err != nil {
		return nil, err
	}
	if m.round, err = r.varint(); err != nil {
		return nil, err
	}
	if err := parseCounters(r, t, &m.counters); err != nil {
		return nil, err
	}
	if m.states, err = parseOwnedStates(r); err != nil {
		return nil, err
	}
	if m.pending, err = parseBatch(r, t); err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
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
	r := &frameReader{typ: frameCkptAck, buf: payload}
	if seq, err = r.uvarint(); err != nil {
		return 0, 0, err
	}
	if round, err = r.varint(); err != nil {
		return 0, 0, err
	}
	if err := r.done(); err != nil {
		return 0, 0, err
	}
	return seq, round, nil
}
