package net

import (
	"fmt"
	"sort"

	"mdegst/internal/sim"
)

// The versioned handshake. Opcode numbers are process-local (they depend
// on package init order), so two processes must agree on a numbering
// before any WireMsg crosses a socket. The canonical wire table fixes one:
// every registered kind string, sorted, numbered from 1 (0 is reserved for
// OpNone, mirroring the registry). The hello frame each side sends first
// carries its protocol version, identity, cluster shape, snapshot
// fingerprint and its full table — kind strings plus payload bounds and
// the rounded flag — and the receiving side verifies the peer's table is
// exactly its own. Agreement means batches, state blobs and counter
// uploads can use table indices directly; disagreement (skewed binaries,
// wrong cluster, wrong graph) fails fast with a typed *HandshakeError
// before any protocol traffic flows.

// handshakeVersion is the plane's wire-protocol version. Version 2 added
// a flags uvarint to round frames (the graceful-stop bit) and the
// heartbeat frame type. Version 3 switched round and checkpoint delivery
// runs to the pre-ranked delta encoding (strictly-ascending rank headers
// and (Parent, Pos) batch keys carried as deltas, DESIGN.md §13) — the
// same byte streams parsed as version 2 would mis-accumulate keys, so
// the version gates it. Version 4 added the solo-round header fields
// (rank space, cumulative delivered count, next-round activity set) to
// round frames (DESIGN.md §13). Version 5 gave the final and checkpoint
// frames one shard payload — seq, round, counters, owned states, then one
// delivery run per destination process — so a checkpoint upload carries
// per-destination runs instead of one merged stream (DESIGN.md §9).
// Version 6 added the run guard's view (highest protocol round and the
// delivered count when it first appeared) to the round header, so every
// process trips the guard at the same barrier (DESIGN.md §9).
const handshakeVersion = 6

// handshakeMagic opens every hello payload.
var handshakeMagic = [8]byte{'M', 'D', 'S', 'T', 'N', 'E', 'T', '1'}

// HandshakeError is the typed error for hello frames that are malformed or
// disagree with the local process: version skew, cluster-shape or
// snapshot-fingerprint mismatches, identity conflicts, or an opcode table
// that differs from the local registry's canonical form.
type HandshakeError struct{ Reason string }

func (e *HandshakeError) Error() string { return "net: handshake: " + e.Reason }

// Fingerprint pins what a cluster of processes must agree on before
// running: the process count and the compiled snapshot's shape.
type Fingerprint struct {
	Procs        int
	N, HalfEdges int
}

// WireTable is the canonical cross-process opcode numbering: all
// registered kinds, sorted, numbered from 1.
type WireTable struct {
	kinds   []string   // index -> kind; kinds[0] unused
	ops     []sim.Op   // index -> process-local opcode
	indexOf []uint64   // process-local opcode -> index (0 = unmapped)
	specs   []tableRow // index-aligned payload bounds for verification
}

type tableRow struct {
	minW, maxW uint8
	rounded    bool
}

// CanonicalTable builds the local registry's canonical wire table.
func CanonicalTable() *WireTable {
	type entry struct {
		kind string
		op   sim.Op
		row  tableRow
	}
	var entries []entry
	for _, s := range sim.Schemas() {
		for i := 0; i < s.Len(); i++ {
			sp := s.Spec(i)
			entries = append(entries, entry{
				kind: sp.Kind,
				op:   s.Op(i),
				row:  tableRow{minW: uint8(sp.MinPayload), maxW: uint8(sp.MaxPayload), rounded: sp.Rounded},
			})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].kind < entries[j].kind })
	t := &WireTable{
		kinds:   make([]string, 1, len(entries)+1),
		ops:     make([]sim.Op, 1, len(entries)+1),
		indexOf: make([]uint64, sim.NumOps()),
		specs:   make([]tableRow, 1, len(entries)+1),
	}
	for _, e := range entries {
		t.kinds = append(t.kinds, e.kind)
		t.ops = append(t.ops, e.op)
		t.specs = append(t.specs, e.row)
		t.indexOf[e.op] = uint64(len(t.kinds) - 1)
	}
	return t
}

// Enc translates a process-local opcode to its table index — the encoder
// handed to sim.AppendWire and the state encoders.
func (t *WireTable) Enc(op sim.Op) uint64 {
	if int(op) >= len(t.indexOf) {
		return 0
	}
	return t.indexOf[op]
}

// Dec translates a table index back to the process-local opcode.
func (t *WireTable) Dec(idx uint64) (sim.Op, error) {
	if idx == 0 || idx >= uint64(len(t.ops)) {
		return sim.OpNone, &FrameError{Reason: fmt.Sprintf("opcode index %d outside the wire table", idx)}
	}
	return t.ops[idx], nil
}

// Len returns the number of table entries including the reserved slot 0.
func (t *WireTable) Len() int { return len(t.kinds) }

// hello is the decoded form of a handshake frame.
type hello struct {
	self int
	fp   Fingerprint
}

// appendHello encodes this process's hello payload.
func appendHello(b []byte, self int, fp Fingerprint, t *WireTable) []byte {
	b = append(b, handshakeMagic[:]...)
	b = appendUvarint(b, handshakeVersion)
	b = appendUvarint(b, uint64(self))
	b = appendUvarint(b, uint64(fp.Procs))
	b = appendUvarint(b, uint64(fp.N))
	b = appendUvarint(b, uint64(fp.HalfEdges))
	b = appendUvarint(b, uint64(len(t.kinds)-1))
	for i := 1; i < len(t.kinds); i++ {
		b = appendUvarint(b, uint64(len(t.kinds[i])))
		b = append(b, t.kinds[i]...)
		b = appendUvarint(b, uint64(t.specs[i].minW))
		b = appendUvarint(b, uint64(t.specs[i].maxW))
		if t.specs[i].rounded {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	return b
}

// handshakeFail is the hello frame's cursor failure.
func handshakeFail(reason string) error { return &HandshakeError{Reason: reason} }

// parseHello decodes and verifies a peer's hello payload against the local
// fingerprint and canonical table. Malformed bytes or any disagreement
// return a typed *HandshakeError, never panic.
func parseHello(payload []byte, fp Fingerprint, t *WireTable) (*hello, error) {
	r := sim.NewCursor(payload, handshakeFail)
	if magic := r.Bytes(uint64(len(handshakeMagic))); r.Err() == nil && string(magic) != string(handshakeMagic[:]) {
		return nil, r.Fail("bad magic: not an mdst transport peer")
	}
	if version := r.Uvarint(); r.Err() == nil && version != handshakeVersion {
		return nil, r.Fail(fmt.Sprintf("protocol version %d (want %d)", version, handshakeVersion))
	}
	self, procs, n, he := r.Uvarint(), r.Uvarint(), r.Uvarint(), r.Uvarint()
	if err := r.Err(); err != nil {
		return nil, err
	}
	if int(procs) != fp.Procs || int(n) != fp.N || int(he) != fp.HalfEdges {
		return nil, r.Fail(fmt.Sprintf(
			"cluster fingerprint mismatch: peer has procs=%d n=%d halfEdges=%d, local procs=%d n=%d halfEdges=%d",
			procs, n, he, fp.Procs, fp.N, fp.HalfEdges))
	}
	if self >= procs {
		return nil, r.Fail(fmt.Sprintf("peer identity %d outside the %d-process cluster", self, procs))
	}
	if nKinds := r.Count(4); r.Err() == nil && nKinds != len(t.kinds)-1 {
		return nil, r.Fail(fmt.Sprintf("opcode table has %d kinds, local registry has %d", nKinds, len(t.kinds)-1))
	}
	for i := 1; i < len(t.kinds); i++ {
		kb := r.Bytes(r.Uvarint())
		minW, maxW, rb := r.Uvarint(), r.Uvarint(), r.Bytes(1)
		if r.Err() != nil {
			break
		}
		if string(kb) != t.kinds[i] {
			return nil, r.Fail(fmt.Sprintf("opcode table entry %d is %q, local registry has %q (binary skew?)", i, kb, t.kinds[i]))
		}
		row := t.specs[i]
		if uint8(minW) != row.minW || uint8(maxW) != row.maxW || (rb[0] != 0) != row.rounded {
			return nil, r.Fail(fmt.Sprintf("schema for kind %q disagrees with the local registry", kb))
		}
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return &hello{self: int(self), fp: fp}, nil
}
