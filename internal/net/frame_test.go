package net

import (
	"bytes"
	"errors"
	"io"
	"slices"
	"testing"

	"mdegst/internal/sim"
)

// Codec tests: framing, handshake and payload parsers must round-trip
// valid input and fail malformed input with typed errors — *FrameError or
// *HandshakeError — and never panic, no matter the bytes (FuzzFrameCodec).

func testFingerprint() Fingerprint { return Fingerprint{Procs: 3, N: 96, HalfEdges: 576} }

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bodies := map[byte][]byte{
		frameHello:   []byte("hello body"),
		frameRound:   {},
		frameFinal:   bytes.Repeat([]byte{7}, 1000),
		frameCkpt:    {0},
		frameCkptAck: {1, 2, 3},
	}
	order := []byte{frameHello, frameRound, frameFinal, frameCkpt, frameCkptAck}
	for _, typ := range order {
		if err := writeFrame(&buf, typ, bodies[typ]); err != nil {
			t.Fatal(err)
		}
	}
	for _, typ := range order {
		got, payload, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("type %d: %v", typ, err)
		}
		if got != typ || !bytes.Equal(payload, bodies[typ]) {
			t.Fatalf("type %d: got type %d payload %v", typ, got, payload)
		}
	}
	if _, _, err := readFrame(&buf); err != io.EOF {
		t.Fatalf("clean boundary: got %v, want io.EOF", err)
	}
}

func TestReadFrameMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
	}{
		{"truncated header", []byte{1, 0}},
		{"empty frame", []byte{0, 0, 0, 0}},
		{"oversize frame", []byte{0xFF, 0xFF, 0xFF, 0xFF}},
		{"truncated payload", []byte{5, 0, 0, 0, frameRound, 1}},
		{"unknown type", []byte{1, 0, 0, 0, 99}},
		{"type zero", []byte{1, 0, 0, 0, 0}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readFrame(bytes.NewReader(tc.in))
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("got %v, want *FrameError", err)
			}
		})
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	fp := testFingerprint()
	table := CanonicalTable()
	if table.Len() < 2 {
		t.Fatal("registry has no opcodes; protocol packages not linked into the test binary")
	}
	payload := appendHello(nil, 2, fp, table)
	h, err := parseHello(payload, fp, table)
	if err != nil {
		t.Fatal(err)
	}
	if h.self != 2 || h.fp != fp {
		t.Fatalf("round trip lost fields: %+v", h)
	}
}

func TestHandshakeRejections(t *testing.T) {
	fp := testFingerprint()
	table := CanonicalTable()
	good := appendHello(nil, 1, fp, table)
	badMagic := append([]byte("NOTMDST!"), good[8:]...)
	otherFp := appendHello(nil, 1, Fingerprint{Procs: 3, N: 97, HalfEdges: 576}, table)
	badID := appendHello(nil, 7, fp, table)
	cases := []struct {
		name string
		in   []byte
	}{
		{"empty", nil},
		{"bad magic", badMagic},
		{"truncated", good[:len(good)/2]},
		{"fingerprint mismatch", otherFp},
		{"identity outside cluster", badID},
		{"trailing bytes", append(append([]byte{}, good...), 0)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseHello(tc.in, fp, table)
			var he *HandshakeError
			if !errors.As(err, &he) {
				t.Fatalf("got %v, want *HandshakeError", err)
			}
		})
	}
}

// wireSample builds a schema-conforming WireMsg from the table entry at
// the given index, filling the minimum payload width with marker words.
func wireSample(table *WireTable, idx uint64) sim.WireMsg {
	op, err := table.Dec(idx)
	if err != nil {
		return sim.WireMsg{}
	}
	row := table.specs[idx]
	m := sim.WireMsg{Op: op, Nw: row.minW}
	for i := uint8(0); i < row.minW; i++ {
		m.W[i] = int64(i) - 4
	}
	return m
}

// sampleIdx prefers a table entry that actually carries payload words.
func sampleIdx(table *WireTable) uint64 {
	for i := 1; i < table.Len(); i++ {
		if table.specs[i].minW > 0 && !table.specs[i].rounded {
			return uint64(i)
		}
	}
	return 1
}

// roundPayload encodes a round frame the way the barrier's sendRound
// does: the header, then the delivery batch.
func roundPayload(h roundHeader, active []int32, counts []sim.RankCount, batch []sim.OutMsg, t *WireTable) []byte {
	return appendRoundBatch(appendRoundHeader(nil, h, active, counts), batch, t)
}

// TestRoundMsgRoundTrip: the barrier's decoder recovers the header, the
// activity set, the scattered counts and the batch a frame was encoded
// from.
func TestRoundMsgRoundTrip(t *testing.T) {
	table := CanonicalTable()
	h := roundHeader{seq: 11, round: 4, flags: roundFlagStop, rankSpace: 6, delivered: 1234}
	counts := []sim.RankCount{{Rank: 0, Count: 2}, {Rank: 5, Count: 3}}
	batch := []sim.OutMsg{
		{Parent: 3, Pos: 1, From: 2, To: 9, Msg: wireSample(table, sampleIdx(table))},
	}
	s := decodeScratch(3, h.rankSpace)
	x := &roundExpect{seq: h.seq, round: h.round, rankSpace: h.rankSpace, delivered: h.delivered, limit: -1}
	got, covered, err := s.decodeRound(1, roundPayload(h, []int32{0, 2}, counts, batch, table), table, x)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("header lost: got %+v want %+v", got, h)
	}
	if want := []bool{true, false, true}; !slices.Equal(s.act, want) {
		t.Fatalf("activity marks %v, want %v", s.act, want)
	}
	if want := []int64{2, 0, 0, 0, 0, 3}; covered != 2 || !slices.Equal(s.cnt[:h.rankSpace], want) {
		t.Fatalf("counts lost: %d entries, rank slab %v, want 2 and %v", covered, s.cnt[:h.rankSpace], want)
	}
	if !slices.Equal(s.rx[1], batch) {
		t.Fatalf("batch lost: %+v", s.rx[1])
	}
}

func uvarintLen(v uint64) int { return len(appendUvarint(nil, v)) }

// TestRoundHeaderDeltaSizeBound pins the point of the delta header: a
// barrier's (rank, count) pairs are strictly ascending and usually
// consecutive, so after the absolute first entry every further entry
// costs one byte of rank delta plus the count — two bytes in the common
// case — regardless of how large the absolute ranks have grown. The
// absolute encoding the deltas replaced pays the full rank width on
// every entry.
func TestRoundHeaderDeltaSizeBound(t *testing.T) {
	const n = 512
	base := int64(1) << 40 // deep into a long run: absolute ranks cost 6 bytes
	counts := make([]sim.RankCount, n)
	for i := range counts {
		counts[i] = sim.RankCount{Rank: base + int64(i), Count: int64(i % 3)}
	}
	h := roundHeader{seq: 7, round: 9}
	empty := len(appendRoundHeader(nil, h, nil, nil))
	hdr := len(appendRoundHeader(nil, h, nil, counts)) - empty
	// First entry absolute, every later consecutive entry 1 rank byte +
	// 1 count byte, plus the larger length prefix.
	bound := uvarintLen(uint64(base)) + 1 + (n-1)*2 + uvarintLen(n) - uvarintLen(0)
	if hdr > bound {
		t.Errorf("delta header for %d consecutive ranks is %d bytes, want <= %d", n, hdr, bound)
	}
	absolute := 0
	for _, c := range counts {
		absolute += uvarintLen(uint64(c.Rank)) + uvarintLen(uint64(c.Count))
	}
	if hdr*2 > absolute {
		t.Errorf("delta header %d bytes does not halve the absolute encoding's %d", hdr, absolute)
	}
	// And the compressed form round-trips unchanged through the header
	// decoders decodeRound runs (its rank slab cannot span ranks this
	// deep, so the counts are read off the cursor directly).
	r := frameCursor(frameRound, roundPayload(h, nil, counts, nil, CanonicalTable()))
	if _, err := decodeRoundHeader(&r, make([]bool, 2)); err != nil {
		t.Fatal(err)
	}
	if got := r.Count(2); got != n {
		t.Fatalf("%d count entries, want %d", got, n)
	}
	cd := newCountsDecoder()
	for i := range counts {
		c, err := cd.next(&r)
		if err != nil {
			t.Fatal(err)
		}
		if c != counts[i] {
			t.Fatalf("entry %d: got %+v want %+v", i, c, counts[i])
		}
	}
}

// badRoundPayloads are hand-crafted round frames violating the pre-ranked
// run invariants the decoder must enforce: the engine's decodeRound rejects
// each with a *FrameError — never a panic, never a silent mis-splice.
func badRoundPayloads(table *WireTable) map[string][]byte {
	wm := wireSample(table, sampleIdx(table))
	rec := func(b []byte, key ...uint64) []byte {
		for _, v := range key {
			b = appendUvarint(b, v)
		}
		b = appendUvarint(b, 0) // from
		b = appendUvarint(b, 1) // to
		return sim.AppendWire(b, wm, table.Enc)
	}
	prefix := func(ncounts uint64) []byte {
		b := appendUvarint(nil, 1) // seq
		b = appendVarint(b, 0)     // round
		b = appendUvarint(b, 0)    // flags
		b = appendUvarint(b, 64)   // rank space
		b = appendUvarint(b, 0)    // delivered
		b = appendUvarint(b, 0)    // empty activity set
		return appendUvarint(b, ncounts)
	}
	dupRank := prefix(2)
	dupRank = appendUvarint(dupRank, 5) // rank 5, count 1
	dupRank = appendUvarint(dupRank, 1)
	dupRank = appendUvarint(dupRank, 0) // zero delta: rank 5 again
	dupRank = appendUvarint(dupRank, 1)
	dupRank = appendUvarint(dupRank, 0) // empty batch

	hugeRank := prefix(1)
	hugeRank = appendUvarint(hugeRank, uint64(limitRank)) // rank at the bound
	hugeRank = appendUvarint(hugeRank, 1)
	hugeRank = appendUvarint(hugeRank, 0)

	dupKey := appendUvarint(prefix(0), 2) // two batch records
	dupKey = rec(dupKey, 1, 0)            // (parent 1, pos 0)
	dupKey = rec(dupKey, 0, 0)            // same parent, zero pos delta: same key

	return map[string][]byte{
		"duplicate rank in counts": dupRank,
		"rank at the bound":        hugeRank,
		"duplicate batch key":      dupKey,
	}
}

// fullExpect is the local barrier the sorted-run corpus is decoded
// against: run 1, round 0, a 64-delivery rank space.
func fullExpect() *roundExpect { return &roundExpect{seq: 1, rankSpace: 64, limit: -1} }

// decodeScratch is a fresh engine arena for a procs-process cluster with
// the rank slab sized for a full barrier of rankSpace deliveries.
func decodeScratch(procs int, rankSpace int64) *arena {
	s := &arena{}
	s.begin(procs)
	s.slabs(rankSpace)
	return s
}

func TestRoundMsgSortedRunViolations(t *testing.T) {
	table := CanonicalTable()
	for name, payload := range badRoundPayloads(table) {
		t.Run(name, func(t *testing.T) {
			_, _, err := decodeScratch(2, 64).decodeRound(1, payload, table, fullExpect())
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Errorf("decodeRound: got %v, want *FrameError", err)
			}
		})
	}
}

// soloHeaderCases are round frames whose solo-round header fields
// disagree with the receiving barrier, each with the expectation it is
// decoded against (a 2-process cluster). Every one must fail typed.
func soloHeaderCases(table *WireTable) []struct {
	name    string
	payload []byte
	x       *roundExpect
} {
	counts := func(n int64) []sim.RankCount {
		cs := make([]sim.RankCount, n)
		for i := range cs {
			cs[i] = sim.RankCount{Rank: int64(i), Count: 1}
		}
		return cs
	}
	msg := func(h roundHeader, active []int32, cs []sim.RankCount) []byte {
		h.seq = 1
		return roundPayload(h, active, cs, nil, table)
	}
	return []struct {
		name    string
		payload []byte
		x       *roundExpect
	}{
		{"rank space disagrees with the local barrier",
			msg(roundHeader{round: 5, rankSpace: 3, delivered: 9}, []int32{1}, counts(3)),
			&roundExpect{seq: 1, round: 5, rankSpace: 4, delivered: 9, limit: -1}},
		{"delivered count disagrees with the local barrier",
			msg(roundHeader{round: 5, rankSpace: 3, delivered: 8}, []int32{1}, counts(3)),
			&roundExpect{seq: 1, round: 5, rankSpace: 3, delivered: 9, limit: -1}},
		{"solo frame does not cover its rank space",
			msg(roundHeader{round: 7, rankSpace: 3, delivered: 9}, []int32{1}, counts(2)),
			&roundExpect{seq: 1, round: 5, solo: true, limit: -1}},
		{"solo rank space outruns the frame",
			msg(roundHeader{round: 7, rankSpace: 1 << 40, delivered: 9}, []int32{1}, counts(2)),
			&roundExpect{seq: 1, round: 5, solo: true, limit: -1}},
		{"activity set names a process outside the cluster",
			msg(roundHeader{round: 5, rankSpace: 3, delivered: 9}, []int32{2}, counts(3)),
			&roundExpect{seq: 1, round: 5, rankSpace: 3, delivered: 9, limit: -1}},
		{"activity set not ascending",
			msg(roundHeader{round: 5, rankSpace: 3, delivered: 9}, []int32{1, 0}, counts(3)),
			&roundExpect{seq: 1, round: 5, rankSpace: 3, delivered: 9, limit: -1}},
		{"frame for an earlier round than the local one",
			msg(roundHeader{round: 4, rankSpace: 3, delivered: 9}, []int32{1}, counts(3)),
			&roundExpect{seq: 1, round: 5, solo: true, limit: -1}},
		{"frame for the local round in a solo wait",
			msg(roundHeader{round: 5, rankSpace: 3, delivered: 9}, []int32{1}, counts(3)),
			&roundExpect{seq: 1, round: 5, solo: true, limit: -1}},
		{"solo frame passes the forced barrier",
			msg(roundHeader{round: 9, rankSpace: 3, delivered: 9}, []int32{1}, counts(3)),
			&roundExpect{seq: 1, round: 5, solo: true, limit: 8}},
		{"full-barrier frame for another round",
			msg(roundHeader{round: 6, rankSpace: 3, delivered: 9}, []int32{1}, counts(3)),
			&roundExpect{seq: 1, round: 5, rankSpace: 3, delivered: 9, limit: -1}},
	}
}

func TestRoundFrameSoloHeaderViolations(t *testing.T) {
	table := CanonicalTable()
	for _, tc := range soloHeaderCases(table) {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := decodeScratch(2, 4).decodeRound(1, tc.payload, table, tc.x)
			var fe *FrameError
			if !errors.As(err, &fe) {
				t.Fatalf("decodeRound: got %v, want *FrameError", err)
			}
		})
	}
}

// TestRoundFrameSoloAdoption: a process idle in a solo stretch adopts the
// lone process's frame — round, rank space, delivered count, activity set
// and counts — even when the frame's rank space outgrows the slabs.
func TestRoundFrameSoloAdoption(t *testing.T) {
	table := CanonicalTable()
	h := roundHeader{seq: 1, round: 12, rankSpace: 5, delivered: 40}
	cs := []sim.RankCount{{Rank: 0, Count: 1}, {Rank: 1}, {Rank: 2, Count: 2}, {Rank: 3}, {Rank: 4, Count: 1}}
	payload := roundPayload(h, []int32{0, 1}, cs, nil, table)
	s := decodeScratch(2, 1)
	got, covered, err := s.decodeRound(0, payload, table, &roundExpect{seq: 1, round: 7, solo: true, limit: 12})
	if err != nil {
		t.Fatal(err)
	}
	if got != h || covered != 5 {
		t.Fatalf("adopted %+v covering %d, want %+v covering 5", got, covered, h)
	}
	if !s.act[0] || !s.act[1] {
		t.Fatalf("activity marks %v, want both processes", s.act)
	}
	if want := []int64{1, 0, 2, 0, 1}; !slices.Equal(s.cnt[:5], want) {
		t.Fatalf("rank slab %v, want %v", s.cnt[:5], want)
	}
}

func TestCkptAckRoundTrip(t *testing.T) {
	seq, round, err := parseCkptAck(appendCkptAck(nil, 9, -3))
	if err != nil || seq != 9 || round != -3 {
		t.Fatalf("got seq=%d round=%d err=%v", seq, round, err)
	}
	if _, _, err := parseCkptAck([]byte{0x80}); err == nil {
		t.Fatal("truncated ack parsed")
	}
}

// sampleShard is a checkpoint shard's content: counters with both
// breakdowns, two owned states and K = 3 per-destination runs, one of
// them empty.
func sampleShard(table *WireTable) (*sim.Checkpoint, []ownedState, [][]sim.OutMsg) {
	wm := wireSample(table, sampleIdx(table))
	op, _ := table.Dec(sampleIdx(table))
	counters := &sim.Checkpoint{
		Messages: 10, Words: 30, MaxWords: 4, CausalDepth: 5,
		KindRounds: []sim.KindRoundCount{{Op: op, Round: 0, Count: 4}, {Op: op, Round: 3, Count: 6}},
		SentBy:     []sim.SentByCount{{Node: 7, Count: 3}, {Node: 9, Count: 7}},
	}
	states := []ownedState{{dense: 1, blob: []byte{1, 2, 3}}, {dense: 4, blob: []byte{}}}
	runs := [][]sim.OutMsg{
		{{Parent: 1, Pos: 0, From: 1, To: 0, Msg: wm}, {Parent: 1, Pos: 2, From: 1, To: 2, Msg: wm}, {Parent: 5, Pos: 0, From: 4, To: 3, Msg: wm}},
		{},
		{{Parent: 0, Pos: 1, From: 4, To: 6, Msg: wm}},
	}
	return counters, states, runs
}

// unsortedShard is a checkpoint shard whose one run repeats a key.
func unsortedShard(table *WireTable) []byte {
	counters, states, runs := sampleShard(table)
	bad := [][]sim.OutMsg{{runs[0][1], runs[0][0]}}
	return appendShard(nil, 1, 2, counters, states, bad, table)
}

func TestShardRoundTrip(t *testing.T) {
	table := CanonicalTable()
	counters, states, runs := sampleShard(table)
	for _, tc := range []struct {
		typ  byte
		runs [][]sim.OutMsg
	}{{frameFinal, nil}, {frameCkpt, runs}} {
		m, err := parseShard(tc.typ, appendShard(nil, 11, 7, counters, states, tc.runs, table), table)
		if err != nil {
			t.Fatalf("type %d: %v", tc.typ, err)
		}
		if m.seq != 11 || m.round != 7 {
			t.Errorf("type %d: seq %d round %d, want 11 and 7", tc.typ, m.seq, m.round)
		}
		if m.counters.Messages != counters.Messages || m.counters.Words != counters.Words ||
			m.counters.MaxWords != counters.MaxWords || m.counters.CausalDepth != counters.CausalDepth ||
			!slices.Equal(m.counters.KindRounds, counters.KindRounds) || !slices.Equal(m.counters.SentBy, counters.SentBy) {
			t.Errorf("type %d: counters %+v, want %+v", tc.typ, m.counters, *counters)
		}
		if len(m.states) != len(states) {
			t.Fatalf("type %d: %d states, want %d", tc.typ, len(m.states), len(states))
		}
		for i, s := range m.states {
			if s.dense != states[i].dense || !bytes.Equal(s.blob, states[i].blob) {
				t.Errorf("type %d: state %d is %+v, want %+v", tc.typ, i, s, states[i])
			}
		}
		if len(m.runs) != len(tc.runs) {
			t.Fatalf("type %d: %d runs, want %d", tc.typ, len(m.runs), len(tc.runs))
		}
		for i, run := range m.runs {
			if !slices.Equal(run, tc.runs[i]) {
				t.Errorf("type %d: run %d is %+v, want %+v", tc.typ, i, run, tc.runs[i])
			}
		}
	}
	var fe *FrameError
	if _, err := parseShard(frameCkpt, unsortedShard(table), table); !errors.As(err, &fe) || fe.Type != frameCkpt {
		t.Errorf("unsorted run: got %v, want a type %d *FrameError", err, frameCkpt)
	}
}

// TestPlacePending places three per-destination runs by rank and refuses
// uploads whose record count matches but whose ranks do not: a repeated
// key with an omission, and a position spilling into the next parent's
// block.
func TestPlacePending(t *testing.T) {
	table := CanonicalTable()
	wm := wireSample(table, sampleIdx(table))
	rec := func(parent int64, pos int32, to int32) sim.OutMsg {
		return sim.OutMsg{Parent: parent, Pos: pos, From: 9, To: to, Msg: wm}
	}
	// Parents 0, 1, 2 sent 2, 0 and 3 deliveries: offsets 0, 2, 2.
	off, total := []int64{0, 2, 2}, int64(5)
	runs := [][]sim.OutMsg{{rec(0, 1, 1), rec(2, 0, 2)}, {}, {rec(0, 0, 0), rec(2, 1, 3), rec(2, 2, 4)}}
	pending, err := placePending(runs, off, total)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pending {
		if p.To != int32(i) {
			t.Errorf("slot %d holds the delivery to %d", i, p.To)
		}
	}
	for name, bad := range map[string][][]sim.OutMsg{
		"duplicate key and omission":          {{rec(0, 1, 1), rec(2, 0, 2)}, {rec(0, 1, 1)}, {rec(2, 1, 3), rec(2, 2, 4)}},
		"position spills into the next block": {{rec(0, 0, 0), rec(0, 2, 2)}, {rec(0, 1, 1)}, {rec(2, 1, 3), rec(2, 2, 4)}},
		"omission":                            {{rec(0, 0, 0), rec(0, 1, 1)}, {}, {rec(2, 1, 3), rec(2, 2, 4)}},
		"rank past the slab":                  {{rec(0, 0, 0), rec(0, 1, 1)}, {rec(2, 0, 2)}, {rec(2, 1, 3), rec(2, 3, 4)}},
	} {
		var fe *FrameError
		if _, err := placePending(bad, off, total); !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want *FrameError", name, err)
		}
	}
}

// typedOrNil fails the fuzz run unless err is nil or one of the plane's
// typed errors.
func typedOrNil(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		return
	}
	var fe *FrameError
	var he *HandshakeError
	if !errors.As(err, &fe) && !errors.As(err, &he) {
		t.Errorf("%s: untyped error %T: %v", what, err, err)
	}
}

// decodeRoundTyped runs the engine's streaming decoder over payload as a
// full barrier and as a solo wait: either way it must succeed or fail
// typed, and a solo adoption must never grow the rank slab past what the
// frame itself can cover.
func decodeRoundTyped(t *testing.T, payload []byte, table *WireTable, procs int) {
	t.Helper()
	_, _, err := decodeScratch(procs, 64).decodeRound(1, payload, table, fullExpect())
	typedOrNil(t, "decodeRound(full)", err)
	s := decodeScratch(procs, 0)
	_, _, err = s.decodeRound(1, payload, table, &roundExpect{seq: 1, round: -1, solo: true, limit: -1})
	typedOrNil(t, "decodeRound(solo)", err)
	if cap(s.cnt) > len(payload) {
		t.Errorf("solo decode grew the rank slab to %d entries from a %d-byte frame", cap(s.cnt), len(payload))
	}
}

// FuzzFrameCodec feeds arbitrary bytes to every parser of the plane — the
// frame decoder, the handshake, and all payload codecs. The contract under
// fuzzing: a parser either succeeds or returns its typed error; it never
// panics, never allocates unboundedly (element counts are checked against
// the remaining payload before any make), and readFrame returns io.EOF
// only at a clean frame boundary.
func FuzzFrameCodec(f *testing.F) {
	fp := testFingerprint()
	table := CanonicalTable()
	wm := wireSample(table, sampleIdx(table))
	batch := []sim.OutMsg{{Parent: 1, Pos: 0, From: 0, To: 1, Msg: wm}}
	counters, states, runs := sampleShard(table)

	f.Add(appendFrame(nil, frameHello, appendHello(nil, 0, fp, table)))
	f.Add(appendFrame(nil, frameRound, roundPayload(roundHeader{seq: 1, rankSpace: 1}, []int32{1}, []sim.RankCount{{Rank: 0, Count: 1}}, batch, table)))
	f.Add(appendFrame(nil, frameFinal, appendShard(nil, 1, 2, counters, states, nil, table)))
	f.Add(appendFrame(nil, frameCkpt, appendShard(nil, 1, 2, counters, states, runs, table)))
	f.Add(appendFrame(nil, frameCkpt, unsortedShard(table)))
	f.Add(appendFrame(nil, frameCkptAck, appendCkptAck(nil, 1, 2)))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x7F})
	f.Add(bytes.Repeat([]byte{0x80}, 32))
	// Pre-ranked run violations: non-ascending rank headers and
	// non-strictly-sorted batch keys must fail typed, never mis-splice.
	for _, payload := range badRoundPayloads(table) {
		f.Add(appendFrame(nil, frameRound, payload))
	}
	// Solo-round header fields that disagree with the receiving barrier.
	for _, tc := range soloHeaderCases(table) {
		f.Add(appendFrame(nil, frameRound, tc.payload))
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		r := bytes.NewReader(b)
		for {
			typ, payload, err := readFrame(r)
			if err != nil {
				if err != io.EOF {
					typedOrNil(t, "readFrame", err)
				}
				break
			}
			switch typ {
			case frameHello:
				_, err := parseHello(payload, fp, table)
				typedOrNil(t, "parseHello", err)
			case frameRound:
				decodeRoundTyped(t, payload, table, fp.Procs)
			case frameFinal, frameCkpt:
				_, err := parseShard(typ, payload, table)
				typedOrNil(t, "parseShard", err)
			case frameCkptAck:
				_, _, err := parseCkptAck(payload)
				typedOrNil(t, "parseCkptAck", err)
			}
		}
		// The raw bytes, interpreted directly as each payload, must also
		// fail typed: frames from a corrupt peer can declare any type.
		_, err := parseHello(b, fp, table)
		typedOrNil(t, "parseHello(raw)", err)
		decodeRoundTyped(t, b, table, fp.Procs)
		_, err = parseShard(frameCkpt, b, table)
		typedOrNil(t, "parseShard(raw)", err)
		_, _, err = parseCkptAck(b)
		typedOrNil(t, "parseCkptAck(raw)", err)
	})
}
