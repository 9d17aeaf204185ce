package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"

	"mdegst/internal/graph"
)

// Byte-exact checkpoint/resume (DESIGN.md §8). At an inter-round barrier
// of the unit-delay tiers the complete in-flight state of a run is three
// flat things: the per-node protocol states, the pending delivery slab of
// the next round (WireMsg records in global send order) and the report
// counters accumulated so far. A Checkpoint captures exactly those, and
// the versioned file form makes long runs restartable: resuming yields a
// Report, delivery trace and final protocol states bitwise-identical to
// the uninterrupted run.
//
// Opcode numbers are process-local (package init order), so the file
// carries an explicit opcode table of kind strings; the reader translates
// back through the registry and fails with a typed error on kinds the
// running binary does not know.

// StateCodec is implemented by protocols whose node state can be frozen at
// a round barrier. WalkState lists the state's fields once, as steps of s
// (see State), which both writes and reads them. The factory-supplied
// construction state (identity, neighbour list, static configuration) is
// not walked: Resume rebuilds instances through the same Factory before
// reading.
type StateCodec interface {
	WalkState(s *State)
}

// CheckpointSpec arms barrier checkpointing on an engine in one of two
// modes. Freeze mode (Every == 0): the run stops at the barrier after
// round Round (0 = right after Init) and stores the frozen run, returning
// ErrCheckpointed; if the run quiesces before reaching the barrier it
// completes normally and no checkpoint is written. Periodic mode
// (Every > 0): at every barrier whose round is a positive multiple of
// Every the engine commits a checkpoint and keeps running — there is
// always a recent recovery point, and the run finishes normally. Round is
// ignored in periodic mode. Either mode stores through Sink when it is
// set, else to W. A resumed run never re-commits the barrier it resumed
// from; its later cadence barriers produce files byte-identical to an
// uninterrupted run's.
type CheckpointSpec struct {
	Round int64
	W     io.Writer
	// Every switches to the periodic cadence when > 0.
	Every int64
	// Sink, when set, receives every commit in place of W.
	Sink CheckpointSink
}

// Next returns the first barrier after round r at which s commits a
// checkpoint (periodic mode) or freezes the run, or -1 when none is left.
// A nil spec arms none; Next(-1) == 0 only for a freeze right after Init.
func (s *CheckpointSpec) Next(r int64) int64 {
	switch {
	case s == nil:
		return -1
	case s.Every > 0:
		return (r/s.Every + 1) * s.Every
	case s.Round > r:
		return s.Round
	}
	return -1
}

// Store durably commits ck through Sink when one is set, else writes it to
// W.
func (s *CheckpointSpec) Store(ck *Checkpoint) error {
	switch {
	case s.Sink != nil:
		return s.Sink.Commit(ck.Round, ck.Write)
	case s.W != nil:
		return ck.Write(s.W)
	}
	return &CheckpointError{Reason: "no checkpoint writer"}
}

// CheckpointSink durably stores periodic checkpoints. Commit must make the
// checkpoint either fully visible or not at all — a crash mid-commit must
// never leave a recovery point that parses but lies (CheckpointDir uses
// write-to-temp + rename). write streams the checkpoint's byte form.
type CheckpointSink interface {
	Commit(round int64, write func(io.Writer) error) error
}

// ErrCheckpointed is returned by a run that stopped at its armed barrier
// after writing the checkpoint. It is a clean stop, not a failure.
var ErrCheckpointed = errors.New("sim: run checkpointed at its round barrier")

// ErrStopped is returned by a run that honoured a graceful stop request at
// a round barrier (the distributed engine's cluster-wide stop agreement).
// Like ErrCheckpointed it is a clean stop, not a failure; a final
// checkpoint was committed first when one was armed.
var ErrStopped = errors.New("sim: run stopped at a round barrier on request")

// errCheckpointTier rejects checkpoint requests outside the unit-delay
// round tiers, the only schedules with barriers to cut at.
var errCheckpointTier = errors.New("sim: checkpoint/resume requires the unit-delay round tier")

// CheckpointError is the typed error for malformed or mismatched
// checkpoint files.
type CheckpointError struct{ Reason string }

func (e *CheckpointError) Error() string { return "sim: checkpoint: " + e.Reason }

// ResumableEngine is implemented by engines that can continue a
// checkpointed run over a compiled snapshot. Resume returns the same dense
// result as Run.
type ResumableEngine interface {
	Engine
	Resume(c *graph.CSR, f Factory, ck *Checkpoint) ([]Protocol, *Report, error)
}

// PendingDelivery is one in-flight message of the checkpointed barrier:
// dense endpoints plus the wire record, in global send order.
type PendingDelivery struct {
	From, To int32
	Msg      WireMsg
}

// KindRoundCount is the count of one (opcode, round) pair: an entry of
// the report's per-(kind, round) breakdown and of the checkpoint's
// counters block.
type KindRoundCount struct {
	Op    Op
	Round int
	Count int64
}

// Kind returns the registered kind string of the entry's opcode.
func (k KindRoundCount) Kind() string { return opKind(k.Op) }

// SentByCount is the send count of one node: an entry of the report's
// per-sender breakdown and of the checkpoint's counters block.
type SentByCount struct {
	Node  NodeID
	Count int64
}

// Counter lists sort by key, and merges sum equal keys with plus. A
// kind-round key orders by opcode, then round; rounds lie in [0, 2^16).
func (k KindRoundCount) key() int64                           { return int64(k.Op)<<32 | int64(k.Round) }
func (k KindRoundCount) plus(o KindRoundCount) KindRoundCount { k.Count += o.Count; return k }
func (s SentByCount) key() int64                              { return int64(s.Node) }
func (s SentByCount) plus(o SentByCount) SentByCount          { s.Count += o.Count; return s }

// badCounts returns why the lists are not a valid breakdown — a round
// outside [0, maxRounds), or entries out of order or repeated — or "".
func badCounts(kr []KindRoundCount, sb []SentByCount) string {
	for i, k := range kr {
		if k.Round < 0 || k.Round >= maxRounds {
			return fmt.Sprintf("counter of %s in round %d outside [0, %d)", k.Kind(), k.Round, maxRounds)
		}
		if i > 0 && k.key() <= kr[i-1].key() {
			return fmt.Sprintf("kind-round counter %d unsorted or repeated", i)
		}
	}
	for i := 1; i < len(sb); i++ {
		if sb[i].key() <= sb[i-1].key() {
			return fmt.Sprintf("sender counter %d unsorted or repeated", i)
		}
	}
	return ""
}

// Checkpoint is a run frozen at a round barrier.
type Checkpoint struct {
	// Round is the barrier: all deliveries of rounds 1..Round happened,
	// Pending holds round Round+1.
	Round int64
	// N and HalfEdges fingerprint the snapshot the run executed over;
	// resume validates them.
	N, HalfEdges int
	// Frozen report counters.
	Messages, Words, CausalDepth int64
	MaxWords                     int
	KindRounds                   []KindRoundCount
	SentBy                       []SentByCount
	// States holds one encoded protocol state per dense node index.
	States [][]byte
	// Pending is the next round's delivery slab in global send order.
	Pending []PendingDelivery

	// tab is the kind table the state blobs were encoded with (captures
	// build it eagerly so blobs and file share indices); state decoders
	// translate back through it.
	tab *kindTable
}

// Capture freezes a run over c at the barrier after round: rep's
// counters, every protocol's state and the next round's pending
// deliveries in global send order. The checkpoint aliases pending.
func Capture(c *graph.CSR, round int64, rep *Report, protos []Protocol, pending []PendingDelivery) (*Checkpoint, error) {
	ck := &Checkpoint{Round: round, N: c.N(), HalfEdges: c.HalfEdges(), Pending: pending}
	ck.CaptureCounters(rep)
	if err := ck.encodeStates(protos); err != nil {
		return nil, err
	}
	return ck, nil
}

// CaptureCounters freezes r's counters into ck. A running report's
// accumulator is read, not consumed, so the run keeps counting. The
// network plane also uses it to ship per-process report shares and
// assemble checkpoint files.
func (ck *Checkpoint) CaptureCounters(r *Report) {
	ck.Messages = r.Messages
	ck.Words = r.Words
	ck.MaxWords = r.MaxWords
	ck.CausalDepth = r.CausalDepth
	if r.run != nil {
		ck.KindRounds, ck.SentBy = r.run.appendLists(ck.KindRounds[:0], ck.SentBy[:0])
	} else {
		ck.KindRounds = append(ck.KindRounds[:0], r.kindRounds...)
		ck.SentBy = append(ck.SentBy[:0], r.sentBy...)
	}
}

// RestoreCounters loads ck's counters into a fresh report (set, not add):
// into its accumulator when the report runs, else as its lists. It fails
// with a *CheckpointError on lists a report cannot hold (see badCounts)
// and, on a running report, on an opcode outside the accumulator's
// schema or a sender outside the run's graph.
func (ck *Checkpoint) RestoreCounters(r *Report) error {
	if reason := badCounts(ck.KindRounds, ck.SentBy); reason != "" {
		return ckptFail(reason)
	}
	r.Messages = ck.Messages
	r.Words = ck.Words
	r.MaxWords = ck.MaxWords
	r.CausalDepth = ck.CausalDepth
	s := r.run
	if s == nil {
		r.kindRounds, r.sentBy = slices.Clone(ck.KindRounds), slices.Clone(ck.SentBy)
		r.addByKind(r.kindRounds)
		return nil
	}
	for _, k := range ck.KindRounds {
		col := s.column(k.Op)
		if col < 0 {
			return ckptFail(fmt.Sprintf("counter of %s outside the run's wire schema", k.Kind()))
		}
		s.c[s.slot(col, int64(k.Round))] = k.Count
	}
	for _, c := range ck.SentBy {
		i, ok := slices.BinarySearch(s.ids, c.Node)
		if !ok {
			return ckptFail(fmt.Sprintf("sender %d is not in the graph", c.Node))
		}
		s.sent[i] = c.Count
	}
	return nil
}

// encodeStates freezes every protocol's state; all must implement
// StateCodec. The checkpoint's kind table is created here so state blobs
// and the file body share one numbering, and in-memory resumes that skip
// the file round trip decode through the same table. All states are
// appended to one arena, and each States[i] is a capacity-capped window
// onto it.
func (ck *Checkpoint) encodeStates(protos []Protocol) error {
	if ck.tab == nil {
		ck.tab = newKindTable()
	}
	ck.States = make([][]byte, len(protos))
	ends := make([]int, len(protos))
	s := Writer(nil, ck.tab.enc)
	for i, p := range protos {
		if err := s.Protocol(p); err != nil {
			return err
		}
		ends[i] = len(s.buf)
	}
	start := 0
	for i, end := range ends {
		ck.States[i] = s.buf[start:end:end]
		start = end
	}
	return nil
}

// RestoreStates decodes ck's per-node states into the instances.
func (ck *Checkpoint) RestoreStates(protos []Protocol) error {
	if len(ck.States) != len(protos) {
		return &CheckpointError{Reason: fmt.Sprintf("%d states for %d nodes", len(ck.States), len(protos))}
	}
	var dec func(uint64) (Op, error)
	if ck.tab != nil {
		dec = ck.tab.dec
	}
	s := StateReader(dec)
	for i, p := range protos {
		if err := s.Load(p, ck.States[i]); err != nil {
			return fmt.Errorf("sim: checkpoint: node state %d: %w", i, err)
		}
	}
	return nil
}

// ValidateAgainst checks ck's snapshot fingerprint and pending-slab
// endpoint ranges against a compiled snapshot before resuming.
func (ck *Checkpoint) ValidateAgainst(c *graph.CSR) error {
	if ck.N != c.N() || ck.HalfEdges != c.HalfEdges() {
		return &CheckpointError{Reason: fmt.Sprintf(
			"snapshot mismatch: checkpoint is for n=%d halfEdges=%d, graph has n=%d halfEdges=%d",
			ck.N, ck.HalfEdges, c.N(), c.HalfEdges())}
	}
	for i, p := range ck.Pending {
		if p.From < 0 || int(p.From) >= ck.N || p.To < 0 || int(p.To) >= ck.N {
			return &CheckpointError{Reason: fmt.Sprintf("pending delivery %d endpoints out of range", i)}
		}
	}
	for _, s := range ck.SentBy {
		if _, ok := c.Index().Of(s.Node); !ok {
			return &CheckpointError{Reason: fmt.Sprintf("sender %d is not in the graph", s.Node)}
		}
	}
	return nil
}

// --- file form ----------------------------------------------------------
//
// magic | version | kind table | body length | body | crc32. The kind
// table is a count, then one length-prefixed kind string per file index;
// the body is varint-packed:
//
//	header    round, n, halfEdges
//	counters  the counters block (WalkCounters)
//	states    count, then per node: len-prefixed opaque blob
//	pending   count, then per delivery: from, to, wire record
//
// Every opcode in the file (pending slab, kind-round counters and any
// WireMsg inside a state blob) is the file-local table index, so the file
// survives registry renumbering across binaries.

var ckptMagic = [8]byte{'M', 'D', 'G', 'S', 'T', 'C', 'K', '1'}

// CheckpointVersion is the current file format version.
const CheckpointVersion = 1

// ckptFail and stateFail are the checkpoint formats' cursor failures.
func ckptFail(reason string) error  { return &CheckpointError{Reason: reason} }
func stateFail(reason string) error { return &CheckpointError{Reason: "node state: " + reason} }

// kindTable numbers opcodes with file-local indices in order of first
// use, keeping their kind strings: the opcode table of checkpoint files
// and binary traces. Index 0 is reserved (OpNone), mirroring the registry.
type kindTable struct {
	fileOf []uint64 // process Op -> file index (0 = unassigned)
	kinds  []string // file index -> kind; kinds[0] is unused
	ops    []Op     // file index -> process Op
}

func newKindTable() *kindTable {
	return &kindTable{fileOf: make([]uint64, NumOps()), kinds: []string{""}, ops: []Op{OpNone}}
}

// enc returns op's file index, assigning the next one on first use.
func (t *kindTable) enc(op Op) uint64 {
	if op == OpNone || int(op) >= NumOps() {
		return 0
	}
	if int(op) < len(t.fileOf) && t.fileOf[op] != 0 {
		return t.fileOf[op]
	}
	return t.add(op, opKind(op))
}

// learn appends kind as the next file index, resolving it through the
// registry; false means the running binary does not know the kind.
func (t *kindTable) learn(kind string) bool {
	op, ok := OpByKind(kind)
	if ok {
		t.add(op, kind)
	}
	return ok
}

func (t *kindTable) add(op Op, kind string) uint64 {
	for int(op) >= len(t.fileOf) { // op registered after the table started
		t.fileOf = append(t.fileOf, 0)
	}
	t.kinds = append(t.kinds, kind)
	t.ops = append(t.ops, op)
	t.fileOf[op] = uint64(len(t.kinds) - 1)
	return t.fileOf[op]
}

// dec translates a file index back to the registry opcode.
func (t *kindTable) dec(fileOp uint64) (Op, error) {
	if fileOp == 0 || fileOp >= uint64(len(t.ops)) {
		return OpNone, &WireError{Reason: fmt.Sprintf("opcode %d outside the file's kind table", fileOp)}
	}
	return t.ops[fileOp], nil
}

// WalkCounters walks the frozen report's counters block: messages,
// words, maxWords, causalDepth, then kindRounds (count, then
// opcode/round/count triples) and sentBy (count, then node/count pairs),
// with opcodes translated by the walk's table. Checkpoint files and the
// cluster's shard frames carry this one block. Read, it fails on rounds
// outside [0, 2^16) and on lists out of order or repeating an entry:
// reports merge the lists as sorted.
func (ck *Checkpoint) WalkCounters(s *State) {
	Varint(s, &ck.Messages)
	Varint(s, &ck.Words)
	Uvarint(s, &ck.MaxWords)
	Varint(s, &ck.CausalDepth)
	List(s, &ck.KindRounds, 3, func(s *State, k *KindRoundCount) {
		s.Op(&k.Op)
		Varint(s, &k.Round)
		Varint(s, &k.Count)
	})
	List(s, &ck.SentBy, 2, func(s *State, c *SentByCount) {
		Varint(s, &c.Node)
		Varint(s, &c.Count)
	})
	if s.reading {
		if reason := badCounts(ck.KindRounds, ck.SentBy); reason != "" {
			s.Fail(reason)
		}
	}
}

// walkBody walks the checkpoint body (see the file form above). Read, the
// state count must equal n. State blobs stay opaque here: they embed
// file-local opcodes, which the state walks translate through ck.tab.
func (ck *Checkpoint) walkBody(s *State) {
	Varint(s, &ck.Round)
	Uvarint(s, &ck.N)
	Uvarint(s, &ck.HalfEdges)
	ck.WalkCounters(s)
	n := len(ck.States)
	s.Len(&n, 1)
	if s.reading && n != ck.N {
		s.Fail(fmt.Sprintf("%d states for n=%d", n, ck.N))
	}
	Each(s, &ck.States, n, (*State).Blob)
	List(s, &ck.Pending, 4, func(s *State, p *PendingDelivery) {
		Uvarint(s, &p.From)
		Uvarint(s, &p.To)
		s.Msg(&p.Msg)
	})
}

// Write encodes ck in the versioned byte form. Output is deterministic:
// equal checkpoints produce equal bytes.
func (ck *Checkpoint) Write(w io.Writer) error {
	// Two passes: the kind table is built while walking the body, but
	// must precede it in the file, so the body is walked first into its
	// own buffer. The table is shared with encodeStates — state blobs
	// already embed its indices.
	if ck.tab == nil {
		ck.tab = newKindTable()
	}
	tab := ck.tab
	s := Writer(nil, tab.enc)
	ck.walkBody(&s)
	body := s.buf

	var out []byte
	out = append(out, ckptMagic[:]...)
	out = appendUvarint(out, CheckpointVersion)
	out = appendUvarint(out, uint64(len(tab.kinds)-1))
	for _, k := range tab.kinds[1:] {
		out = appendUvarint(out, uint64(len(k)))
		out = append(out, k...)
	}
	out = appendUvarint(out, uint64(len(body)))
	out = append(out, body...)
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	_, err := w.Write(out)
	return err
}

// ReadCheckpoint decodes a checkpoint file, translating its kind table
// through the registry. Unknown versions, corrupted bytes (CRC mismatch),
// unregistered kinds and malformed records return typed *CheckpointError
// values.
func ReadCheckpoint(rd io.Reader) (*Checkpoint, error) {
	raw, err := io.ReadAll(rd)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(ckptMagic)+4 {
		return nil, ckptFail("file too short")
	}
	if string(raw[:len(ckptMagic)]) != string(ckptMagic[:]) {
		return nil, ckptFail("bad magic: not a checkpoint file")
	}
	sum := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if crc32.ChecksumIEEE(raw[:len(raw)-4]) != sum {
		return nil, ckptFail("CRC mismatch: file corrupted")
	}
	c := NewCursor(raw[len(ckptMagic):len(raw)-4], ckptFail)
	if v := c.Uvarint(); c.Err() == nil && v != CheckpointVersion {
		return nil, ckptFail(fmt.Sprintf("unsupported version %d (want %d)", v, CheckpointVersion))
	}
	// The table is rebuilt as-is, so re-writing the checkpoint keeps the
	// numbering the state blobs were encoded with.
	tab := newKindTable()
	for i, n := 0, c.Count(1); i < n; i++ {
		if kind := c.Bytes(c.Uvarint()); c.Err() == nil && !tab.learn(string(kind)) {
			return nil, ckptFail(fmt.Sprintf("unknown message kind %q (protocol not linked in?)", kind))
		}
	}
	body := c.Bytes(c.Uvarint())
	if err := c.Done(); err != nil {
		return nil, err
	}

	ck := &Checkpoint{tab: tab}
	s := Reader(NewCursor(body, ckptFail), tab.dec)
	ck.walkBody(&s)
	if err := s.c.Done(); err != nil {
		return nil, err
	}
	return ck, nil
}

// --- the walk ---------------------------------------------------------

// State is one walk over a frozen-run layout: a node's protocol state
// (StateCodec), the counters block (WalkCounters) or the checkpoint body.
// Each layout is a single list of steps. A writing walk appends every
// field to its bytes; a reading walk fills every field from its cursor, so
// the writer and the reader cannot drift apart. Checks of what was read
// run on the reading side only (Reading) and fail through Fail. Failures
// are the cursor's, so they are sticky: after the first one every later
// step reads zero, and the walk's owner checks for a failure once at the
// end.
type State struct {
	buf     []byte // writing: the bytes so far
	c       Cursor // reading
	reading bool
	enc     func(Op) uint64
	dec     func(uint64) (Op, error)
}

// Writer returns a walk that appends to buf, translating opcodes with enc
// (nil keeps process-local opcodes).
func Writer(buf []byte, enc func(Op) uint64) State { return State{buf: buf, enc: enc} }

// Reader returns a walk that reads c, translating opcodes with dec (nil
// keeps process-local opcodes).
func Reader(c Cursor, dec func(uint64) (Op, error)) State {
	return State{c: c, reading: true, dec: dec}
}

// Reading reports whether the walk fills fields rather than writing them.
func (s *State) Reading() bool { return s.reading }

// Bytes returns what a writing walk has appended.
func (s *State) Bytes() []byte { return s.buf }

// Cursor returns a reading walk's cursor, for the parts of a format that
// are not walked.
func (s *State) Cursor() *Cursor { return &s.c }

// Fail records a reading walk's failure unless an earlier one stands.
func (s *State) Fail(reason string) { s.c.Fail(reason) }

type integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 | ~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64
}

// Varint steps over an integer field as a zigzag varint.
func Varint[T integer](s *State, p *T) {
	if s.reading {
		*p = T(s.c.Varint())
		return
	}
	s.buf = appendVarint(s.buf, int64(*p))
}

// Uvarint steps over a non-negative integer field as an unsigned varint.
func Uvarint[T integer](s *State, p *T) {
	if s.reading {
		*p = T(s.c.Uvarint())
		return
	}
	s.buf = appendUvarint(s.buf, uint64(*p))
}

// Bool steps over a flag, the varint 0 or 1.
func (s *State) Bool(p *bool) {
	if s.reading {
		*p = s.c.Varint() != 0
		return
	}
	var v int64
	if *p {
		v = 1
	}
	s.buf = appendVarint(s.buf, v)
}

// Op steps over an opcode, written as its index in the walk's table, which
// the walk must have.
func (s *State) Op(p *Op) {
	if !s.reading {
		s.buf = appendUvarint(s.buf, s.enc(*p))
		return
	}
	op, err := s.dec(s.c.Uvarint())
	if err != nil {
		s.c.Fail(err.Error())
	}
	*p = op
}

// Msg steps over a wire record (a deferred message, say), its opcode
// translated through the walk's table.
func (s *State) Msg(p *WireMsg) {
	if s.reading {
		*p = s.c.Wire(s.dec)
		return
	}
	s.buf = AppendWire(s.buf, *p, s.enc)
}

// Blob steps over a length-prefixed byte string; read, it aliases the
// cursor's buffer.
func (s *State) Blob(p *[]byte) {
	if s.reading {
		*p = s.c.Bytes(s.c.Uvarint())
		return
	}
	s.buf = appendUvarint(s.buf, uint64(len(*p)))
	s.buf = append(s.buf, *p...)
}

// Len steps over a list length as an unsigned varint. Read, the length is
// bounded by the bytes left, each element taking at least minBytes.
func (s *State) Len(n *int, minBytes int) {
	if s.reading {
		*n = s.c.Count(minBytes)
		return
	}
	s.buf = appendUvarint(s.buf, uint64(*n))
}

// Each walks the elements of *p through step once the caller has walked
// their number n. Writing, it steps through *p as it stands. Reading, it
// first makes *p n zeroed elements long, in its own array when that has
// room, and fails on an n below zero or above the bytes left (every
// element takes at least one byte), so no input allocates past its size.
func Each[T any](s *State, p *[]T, n int, step func(*State, *T)) {
	if s.reading {
		if n < 0 || n > s.c.Len() {
			s.c.Fail(fmt.Sprintf("list of %d entries with %d bytes left", n, s.c.Len()))
			n = 0
		}
		if *p == nil || cap(*p) < n {
			*p = make([]T, n)
		} else {
			*p = (*p)[:n]
			clear(*p)
		}
	}
	for i := range *p {
		step(s, &(*p)[i])
	}
}

// List walks a list as its length (see Len) and then its elements.
func List[T any](s *State, p *[]T, minBytes int, step func(*State, *T)) {
	n := len(*p)
	s.Len(&n, minBytes)
	Each(s, p, n, step)
}

// IDs steps over a list of node identities; its length is a zigzag
// varint.
func (s *State) IDs(p *[]NodeID) {
	n := len(*p)
	Varint(s, &n)
	Each(s, p, n, Varint[NodeID])
}

// Protocol walks p's state; p must implement StateCodec.
func (s *State) Protocol(p Protocol) error {
	sc, ok := p.(StateCodec)
	if !ok {
		return &CheckpointError{Reason: fmt.Sprintf("protocol %T does not implement StateCodec", p)}
	}
	sc.WalkState(s)
	return s.c.Err()
}

// StateReader returns a walk that reads node-state blobs (see Load),
// translating opcodes through dec (nil keeps process-local opcodes).
func StateReader(dec func(uint64) (Op, error)) *State {
	s := Reader(NewCursor(nil, stateFail), dec)
	return &s
}

// Load reads blob, one node's state, into p. The walk must consume the
// blob exactly.
func (s *State) Load(p Protocol, blob []byte) error {
	s.c = NewCursor(blob, s.c.fail)
	if err := s.Protocol(p); err != nil {
		return err
	}
	return s.c.Done()
}
