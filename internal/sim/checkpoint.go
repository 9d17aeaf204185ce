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
// a round barrier. Encode and Decode must mirror each other exactly; the
// factory-supplied construction state (identity, neighbour list, static
// configuration) need not be encoded — Resume rebuilds instances through
// the same Factory before decoding.
type StateCodec interface {
	EncodeState(e *StateEncoder)
	DecodeState(d *StateDecoder) error
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
	enc := ck.tab.enc
	var arena []byte
	for i, p := range protos {
		var err error
		if arena, err = AppendProtocolState(arena, p, enc); err != nil {
			return err
		}
		ends[i] = len(arena)
	}
	start := 0
	for i, end := range ends {
		ck.States[i] = arena[start:end:end]
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
	for i, p := range protos {
		if err := DecodeProtocolState(p, ck.States[i], dec); err != nil {
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
//	counters  the counters block (AppendCounters)
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

// AppendCounters appends the frozen report's counters block: messages,
// words, maxWords, causalDepth, then kindRounds (count, then
// opcode/round/count triples) and sentBy (count, then node/count pairs),
// with opcodes translated by enc. Checkpoint files and the cluster's
// shard frames carry this one block.
func (ck *Checkpoint) AppendCounters(b []byte, enc func(Op) uint64) []byte {
	b = appendVarint(b, ck.Messages)
	b = appendVarint(b, ck.Words)
	b = appendUvarint(b, uint64(ck.MaxWords))
	b = appendVarint(b, ck.CausalDepth)
	b = appendUvarint(b, uint64(len(ck.KindRounds)))
	for _, kr := range ck.KindRounds {
		b = appendUvarint(b, enc(kr.Op))
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

// ReadCounters decodes a counters block written by AppendCounters,
// translating opcodes through dec. Failures land on the cursor, among
// them rounds outside [0, 2^16) and lists out of order or repeating an
// entry: reports merge the lists as sorted.
func (ck *Checkpoint) ReadCounters(c *Cursor, dec func(uint64) (Op, error)) {
	ck.Messages, ck.Words = c.Varint(), c.Varint()
	ck.MaxWords, ck.CausalDepth = int(c.Uvarint()), c.Varint()
	ck.KindRounds = make([]KindRoundCount, c.Count(3))
	for i := range ck.KindRounds {
		op, err := dec(c.Uvarint())
		if err != nil {
			c.Fail(err.Error())
		}
		ck.KindRounds[i] = KindRoundCount{Op: op, Round: int(c.Varint()), Count: c.Varint()}
	}
	ck.SentBy = make([]SentByCount, c.Count(2))
	for i := range ck.SentBy {
		ck.SentBy[i] = SentByCount{Node: NodeID(c.Varint()), Count: c.Varint()}
	}
	if reason := badCounts(ck.KindRounds, ck.SentBy); reason != "" {
		c.Fail(reason)
	}
}

// Write encodes ck in the versioned byte form. Output is deterministic:
// equal checkpoints produce equal bytes.
func (ck *Checkpoint) Write(w io.Writer) error {
	// Two passes: the kind table is built while encoding the body, but
	// must precede it in the file, so encode body first into its own buf.
	// The table is shared with encodeStates — state blobs already embed
	// its indices.
	if ck.tab == nil {
		ck.tab = newKindTable()
	}
	tab := ck.tab
	var body []byte
	body = appendVarint(body, ck.Round)
	body = appendUvarint(body, uint64(ck.N))
	body = appendUvarint(body, uint64(ck.HalfEdges))
	body = ck.AppendCounters(body, tab.enc)
	body = appendUvarint(body, uint64(len(ck.States)))
	for _, st := range ck.States {
		body = appendUvarint(body, uint64(len(st)))
		body = append(body, st...)
	}
	body = appendUvarint(body, uint64(len(ck.Pending)))
	for _, p := range ck.Pending {
		body = appendUvarint(body, uint64(p.From))
		body = appendUvarint(body, uint64(p.To))
		body = AppendWire(body, p.Msg, tab.enc)
	}

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

	c = NewCursor(body, ckptFail)
	ck := &Checkpoint{tab: tab, Round: c.Varint(), N: int(c.Uvarint()), HalfEdges: int(c.Uvarint())}
	ck.ReadCounters(&c, tab.dec)
	n := c.Count(1)
	if err := c.Err(); err != nil {
		return nil, err
	}
	if n != ck.N {
		return nil, ckptFail(fmt.Sprintf("%d states for n=%d", n, ck.N))
	}
	// State blobs embed file-local opcodes; they stay opaque here and the
	// decoder translates through ck.tab (see StateDecoder.Msg).
	ck.States = make([][]byte, n)
	for i := range ck.States {
		ck.States[i] = c.Bytes(c.Uvarint())
	}
	ck.Pending = make([]PendingDelivery, c.Count(4))
	for i := range ck.Pending {
		ck.Pending[i] = PendingDelivery{From: int32(c.Uvarint()), To: int32(c.Uvarint()), Msg: c.Wire(tab.dec)}
	}
	if err := c.Done(); err != nil {
		return nil, err
	}
	return ck, nil
}

// --- state codec --------------------------------------------------------

// StateEncoder serialises one node's protocol state as a varint word
// stream. Encode and decode call sequences must mirror exactly.
type StateEncoder struct {
	buf   []byte
	opEnc func(Op) uint64
}

// Int appends a signed integer (identities, counters, enums).
func (e *StateEncoder) Int(v int64) { e.buf = appendVarint(e.buf, v) }

// Bool appends a flag.
func (e *StateEncoder) Bool(b bool) {
	var v int64
	if b {
		v = 1
	}
	e.Int(v)
}

// ID appends a node identity.
func (e *StateEncoder) ID(v NodeID) { e.Int(int64(v)) }

// IDs appends a length-prefixed identity list.
func (e *StateEncoder) IDs(vs []NodeID) {
	e.Int(int64(len(vs)))
	for _, v := range vs {
		e.ID(v)
	}
}

// Msg appends a wire record (a deferred message, say), translating its
// opcode to the checkpoint file's table when the encoder is bound to one.
func (e *StateEncoder) Msg(m WireMsg) { e.buf = AppendWire(e.buf, m, e.opEnc) }

// StateDecoder mirrors StateEncoder. Errors are sticky: after the first
// malformed read every further value is zero and Err reports the failure
// (checked by the engine after DecodeState returns).
type StateDecoder struct {
	c     Cursor
	opDec func(uint64) (Op, error)
}

// Err returns the first decoding error.
func (d *StateDecoder) Err() error { return d.c.Err() }

// Int reads a signed integer.
func (d *StateDecoder) Int() int64 { return d.c.Varint() }

// Bool reads a flag.
func (d *StateDecoder) Bool() bool { return d.Int() != 0 }

// ID reads a node identity.
func (d *StateDecoder) ID() NodeID { return NodeID(d.Int()) }

// IDs reads a length-prefixed identity list.
func (d *StateDecoder) IDs() []NodeID {
	n := d.Int()
	if n < 0 || n > int64(d.c.Len()) {
		d.c.Fail(fmt.Sprintf("identity list of %d entries", n))
	}
	if d.c.Err() != nil {
		return nil
	}
	vs := make([]NodeID, n)
	for i := range vs {
		vs[i] = d.ID()
	}
	return vs
}

// Msg reads a wire record, translating the file-local opcode back through
// the registry when bound to a checkpoint file.
func (d *StateDecoder) Msg() WireMsg { return d.c.Wire(d.opDec) }
