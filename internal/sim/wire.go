package sim

import (
	"encoding/binary"
	"fmt"
)

// The flat wire-format message plane (DESIGN.md §8). The paper accounts
// complexity in O(log n)-bit message words — every message is an opcode
// plus a handful of identities/integers — so the runtime represents
// messages exactly that way: a WireMsg is an opcode byte pair and up to
// MaxPayloadWords int64 payload words, a plain value struct with no
// pointers. Engines carry []WireMsg slabs instead of interface slices
// (no boxing allocation per send, no dynamic dispatch per delivery, and
// outbox merges are pure memmoves), and the in-flight state of a run is
// trivially serialisable, which is what checkpoint/resume and the binary
// trace form are built on.
//
// Each protocol package registers its message vocabulary once (package
// init) as a Schema of OpSpecs; the registry hands out process-global
// opcode values and keeps the kind-string and word-accounting tables the
// Report and the trace renderers key off. Opcode numbers are process-local
// (they depend on package init order) — everything that leaves the process
// (checkpoints, binary traces) stores an explicit opcode table of kind
// strings and translates on the way back in, so files survive rebuilds.

// Op identifies one message type in the process-global wire-schema
// registry. The zero value OpNone is reserved: a zero WireMsg means "no
// message".
type Op uint16

// OpNone is the reserved null opcode.
const OpNone Op = 0

// MaxPayloadWords is the largest payload a WireMsg can carry. The paper
// claims at most four numbers or identities per message; our one aggregate
// (mdst.bfsback) carries eight (see DESIGN.md deviation notes).
const MaxPayloadWords = 8

// WireMsg is a message in wire form: an opcode and Nw payload words. It is
// a value type with no pointers — copying it is the only thing engines ever
// do with it, and a slab of them serialises byte for byte.
type WireMsg struct {
	Op Op
	Nw uint8 // payload words used (<= MaxPayloadWords)
	W  [MaxPayloadWords]int64
}

// Kind returns the registered kind string of the message's opcode, the key
// used in Report breakdowns ("mdst.start", "st.echo", ...).
func (m WireMsg) Kind() string { return opKind(m.Op) }

// Words reports the message size in abstract O(log n)-bit machine words:
// the opcode/kind tag plus the payload words — the paper's bit-complexity
// accounting, derived from the record instead of hand-written per type.
func (m WireMsg) Words() int { return 1 + int(m.Nw) }

func (m WireMsg) String() string {
	return fmt.Sprintf("%s(%d words)", m.Kind(), m.Words())
}

// Msg builds a wire record carrying the given payload words — the one
// obvious constructor for protocol packages' fixed-shape messages. The
// variadic slice does not escape, so calls compile to stack writes.
func Msg(op Op, words ...int64) WireMsg {
	if len(words) > MaxPayloadWords {
		panic(fmt.Sprintf("sim: %s record with %d payload words (max %d)", opKind(op), len(words), MaxPayloadWords))
	}
	m := WireMsg{Op: op, Nw: uint8(len(words))}
	copy(m.W[:], words)
	return m
}

// B2W encodes a flag as a payload word.
func B2W(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// OpSpec declares one message type of a protocol's wire schema.
type OpSpec struct {
	// Kind is the message's kind string, globally unique across schemas
	// (Register panics on a collision).
	Kind string
	// MinPayload and MaxPayload bound the payload word count. Fixed-size
	// messages have MinPayload == MaxPayload; the only variable-size
	// message in the tree is the mdst BFSBack aggregate.
	MinPayload, MaxPayload int
	// Rounded marks payload word 0 as the algorithm round, which the
	// Report uses for its per-round breakdowns.
	Rounded bool
}

// Schema is one protocol's registered message vocabulary. Its opcodes are
// the contiguous range [base, base+len(specs)).
type Schema struct {
	proto string
	base  Op
	specs []OpSpec
}

// Proto returns the owning protocol's registry name.
func (s *Schema) Proto() string { return s.proto }

// Len returns the number of opcodes in the schema.
func (s *Schema) Len() int { return len(s.specs) }

// Op returns the process-global opcode of the schema's i-th spec.
func (s *Schema) Op(i int) Op { return s.base + Op(i) }

// Spec returns the schema's i-th spec.
func (s *Schema) Spec(i int) OpSpec { return s.specs[i] }

// wireInfo is the registry's per-opcode record, the lookup behind Kind,
// Validate and report accounting.
type wireInfo struct {
	kind       string
	schema     *Schema
	minW, maxW uint8
	rounded    bool
}

// The registry. Registration happens exclusively from package init
// functions (which the runtime serialises), and all reads happen after
// init completes, so no locking is needed — mutating it later would be a
// data race by construction and Register documents that contract.
var wireReg = struct {
	infos   []wireInfo // indexed by Op; slot 0 is OpNone
	kinds   map[string]Op
	schemas []*Schema
}{
	infos: []wireInfo{{kind: "(none)"}},
	kinds: make(map[string]Op),
}

// Register records a protocol's message vocabulary and assigns its opcode
// range. It must be called from package init (or test setup before any
// engine runs); kind strings are global keys and must be unique.
func Register(proto string, specs ...OpSpec) *Schema {
	if len(specs) == 0 {
		panic(fmt.Sprintf("sim: schema %q registers no opcodes", proto))
	}
	s := &Schema{proto: proto, base: Op(len(wireReg.infos)), specs: specs}
	for _, sp := range specs {
		if sp.Kind == "" {
			panic(fmt.Sprintf("sim: schema %q has an opcode without a kind", proto))
		}
		if _, dup := wireReg.kinds[sp.Kind]; dup {
			panic(fmt.Sprintf("sim: message kind %q registered twice", sp.Kind))
		}
		if sp.MinPayload < 0 || sp.MaxPayload > MaxPayloadWords || sp.MinPayload > sp.MaxPayload {
			panic(fmt.Sprintf("sim: kind %q payload bounds [%d,%d] invalid", sp.Kind, sp.MinPayload, sp.MaxPayload))
		}
		if sp.Rounded && sp.MinPayload < 1 {
			panic(fmt.Sprintf("sim: rounded kind %q needs payload word 0 for the round", sp.Kind))
		}
		wireReg.kinds[sp.Kind] = Op(len(wireReg.infos))
		wireReg.infos = append(wireReg.infos, wireInfo{
			kind:    sp.Kind,
			schema:  s,
			minW:    uint8(sp.MinPayload),
			maxW:    uint8(sp.MaxPayload),
			rounded: sp.Rounded,
		})
	}
	wireReg.schemas = append(wireReg.schemas, s)
	return s
}

// Schemas returns all registered schemas (audit/tooling surface).
func Schemas() []*Schema { return wireReg.schemas }

// OpByKind resolves a kind string to its opcode.
func OpByKind(kind string) (Op, bool) {
	op, ok := wireReg.kinds[kind]
	return op, ok
}

// NumOps returns the size of the opcode space including OpNone.
func NumOps() int { return len(wireReg.infos) }

func opInfo(op Op) *wireInfo {
	if int(op) >= len(wireReg.infos) {
		return nil
	}
	return &wireReg.infos[op]
}

func opKind(op Op) string {
	if info := opInfo(op); info != nil {
		return info.kind
	}
	return fmt.Sprintf("op(%d)", op)
}

// WireError is the typed error for malformed wire records: unknown
// opcodes, payload counts outside the schema bounds, or truncated input.
type WireError struct {
	Op     Op
	Kind   string // empty when the opcode is unknown
	Reason string
}

func (e *WireError) Error() string {
	if e.Kind != "" {
		return fmt.Sprintf("sim: wire record %s (op %d): %s", e.Kind, e.Op, e.Reason)
	}
	return fmt.Sprintf("sim: wire record op %d: %s", e.Op, e.Reason)
}

// Validate checks m against its registered schema: known opcode, payload
// count inside the declared bounds and, for Rounded opcodes, a round word
// inside the [0, 2^16) rounds a Report counts. Engines trust protocol
// constructors and do not validate per send; decoders of external bytes
// (checkpoints, binary traces, cluster frames) do.
func (m WireMsg) Validate() error {
	info := opInfo(m.Op)
	if m.Op == OpNone || info == nil {
		return &WireError{Op: m.Op, Reason: "unknown opcode"}
	}
	if m.Nw < info.minW || m.Nw > info.maxW {
		return &WireError{Op: m.Op, Kind: info.kind,
			Reason: fmt.Sprintf("payload %d words outside schema bounds [%d,%d]", m.Nw, info.minW, info.maxW)}
	}
	if info.rounded && uint64(m.W[0]) >= maxRounds {
		return &WireError{Op: m.Op, Kind: info.kind, Reason: fmt.Sprintf("round %d outside [0, %d)", m.W[0], maxRounds)}
	}
	return nil
}

// --- binary codec -------------------------------------------------------
//
// The byte form of one wire record, shared by the binary trace and the
// checkpoint file: uvarint opcode, uvarint payload count, then the payload
// words as zigzag varints (payloads are identities, degrees and counters —
// small — so varints beat fixed 8-byte words by ~5x on real traffic).
// Opcode translation is the caller's concern: files carry file-local
// opcode tables and pass translation functions.

// appendUvarint/appendVarint are binary.AppendUvarint/AppendVarint; named
// locally so the codec reads as one vocabulary.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }

// AppendWire appends m's byte form to b. enc translates the process-local
// opcode to the file-local one (nil means identity).
func AppendWire(b []byte, m WireMsg, enc func(Op) uint64) []byte {
	fileOp := uint64(m.Op)
	if enc != nil {
		fileOp = enc(m.Op)
	}
	b = appendUvarint(b, fileOp)
	b = appendUvarint(b, uint64(m.Nw))
	for i := 0; i < int(m.Nw); i++ {
		b = appendVarint(b, m.W[i])
	}
	return b
}

// DecodeWire decodes one wire record from b, returning the message and the
// bytes consumed. dec translates a file-local opcode back to the registry
// (nil means identity plus a registry lookup). Malformed input — truncated
// bytes, unknown opcodes, payload counts over MaxPayloadWords or outside
// the schema bounds — returns a *WireError, never panics.
func DecodeWire(b []byte, dec func(uint64) (Op, error)) (WireMsg, int, error) {
	var m WireMsg
	fileOp, n := binary.Uvarint(b)
	if n <= 0 {
		return m, 0, &WireError{Reason: "truncated opcode"}
	}
	at := n
	if dec != nil {
		op, err := dec(fileOp)
		if err != nil {
			return m, 0, err
		}
		m.Op = op
	} else {
		if fileOp == 0 || fileOp >= uint64(len(wireReg.infos)) {
			return m, 0, &WireError{Op: Op(fileOp), Reason: "unknown opcode"}
		}
		m.Op = Op(fileOp)
	}
	nw, n := binary.Uvarint(b[at:])
	if n <= 0 {
		return m, 0, &WireError{Op: m.Op, Kind: opKind(m.Op), Reason: "truncated payload count"}
	}
	at += n
	if nw > MaxPayloadWords {
		return m, 0, &WireError{Op: m.Op, Kind: opKind(m.Op),
			Reason: fmt.Sprintf("payload count %d exceeds MaxPayloadWords", nw)}
	}
	m.Nw = uint8(nw)
	for i := 0; i < int(nw); i++ {
		w, n := binary.Varint(b[at:])
		if n <= 0 {
			return m, 0, &WireError{Op: m.Op, Kind: opKind(m.Op), Reason: "truncated payload word"}
		}
		m.W[i] = w
		at += n
	}
	if err := m.Validate(); err != nil {
		return m, 0, err
	}
	return m, at, nil
}

// --- bounded cursor -----------------------------------------------------

// Cursor is the one bounded reader over the varint byte forms of a frozen
// run: checkpoint files, node-state blobs, binary traces and the cluster's
// frames (DESIGN.md §8). Every read checks the remaining bytes. Errors are
// sticky: the first failure is kept, the cursor jumps to the end, and
// every later read returns zero, so a decoder checks Err once per record
// or section instead of once per value. A failure is built by the
// format's constructor fail — bound once per format (or per frame type),
// so a cursor costs no allocation — which is how each caller keeps its
// own typed error.
type Cursor struct {
	buf  []byte
	at   int
	err  error
	fail func(reason string) error
}

// NewCursor starts a cursor over buf whose failures come from fail.
func NewCursor(buf []byte, fail func(reason string) error) Cursor {
	return Cursor{buf: buf, fail: fail}
}

// Err returns the first failure, or nil.
func (c *Cursor) Err() error { return c.err }

// Fail records the format's typed error for reason unless an earlier
// failure stands, and returns the first failure.
func (c *Cursor) Fail(reason string) error {
	if c.err == nil {
		c.err = c.fail(reason)
		c.at = len(c.buf)
	}
	return c.err
}

// Len returns the number of unread bytes.
func (c *Cursor) Len() int { return len(c.buf) - c.at }

// Uvarint reads an unsigned varint. One-byte values, the common case,
// take the inlined fast path.
func (c *Cursor) Uvarint() uint64 {
	if c.at < len(c.buf) && c.buf[c.at] < 0x80 {
		c.at++
		return uint64(c.buf[c.at-1])
	}
	return c.uvarintSlow()
}

func (c *Cursor) uvarintSlow() uint64 {
	v, n := binary.Uvarint(c.buf[c.at:])
	if n <= 0 {
		c.Fail("truncated varint")
		return 0
	}
	c.at += n
	return v
}

// Varint reads a zigzag-encoded signed varint.
func (c *Cursor) Varint() int64 {
	u := c.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Bytes reads the next n bytes, aliasing the cursor's buffer.
func (c *Cursor) Bytes(n uint64) []byte {
	if n > uint64(len(c.buf)-c.at) {
		c.Fail("truncated bytes")
		return nil
	}
	c.at += int(n)
	return c.buf[c.at-int(n) : c.at]
}

// Count reads an element count and bounds it by the remaining bytes (each
// element occupies at least minBytes), so malformed input cannot make a
// decoder allocate unbounded slices before parsing the entries.
func (c *Cursor) Count(minBytes int) int {
	v := c.Uvarint()
	if v > uint64(len(c.buf)-c.at)/uint64(minBytes) {
		c.Fail(fmt.Sprintf("element count %d exceeds the remaining %d bytes", v, len(c.buf)-c.at))
		return 0
	}
	return int(v)
}

// Wire decodes one wire record, translating its opcode through dec. A
// malformed record fails the cursor with DecodeWire's reason.
func (c *Cursor) Wire(dec func(uint64) (Op, error)) WireMsg {
	m, n, err := DecodeWire(c.buf[c.at:], dec)
	if err != nil {
		c.Fail("wire record: " + err.Error())
		return WireMsg{}
	}
	c.at += n
	return m
}

// Done fails unless every byte was read, and returns the first failure.
func (c *Cursor) Done() error {
	if c.at != len(c.buf) {
		c.trailing()
	}
	return c.err
}

func (c *Cursor) trailing() { c.Fail(fmt.Sprintf("%d trailing bytes", len(c.buf)-c.at)) }
