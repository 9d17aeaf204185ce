// Package net is the networked deployment plane (DESIGN.md §9): a
// length-framed TCP transport for batched wire-format messages, a
// versioned handshake exchanging the opcode/schema table, and a
// distributed unit-delay round engine that lets OS processes — each
// hosting one partition shard of protocol nodes — execute a run that is
// tree-, report- and checkpoint-byte-equivalent to the in-process
// simulator. The cmd/mdstd daemon is its operational face.
//
// Determinism comes from a canonical delivery order (DESIGN.md §13):
// deliveries are keyed (parent rank, send position), cross-process
// batches splice canonically, and round ranks come from a prefix sum over
// per-delivery send counts broadcast at each barrier. A K-process run over
// loopback therefore produces bit-identical results to the single-process
// EventEngine — which is what the differential loopback suite pins.
package net

import (
	"encoding/binary"
	"fmt"
	"io"

	"mdegst/internal/sim"
)

// Frame types of the plane's wire protocol. Each frame is a 4-byte
// little-endian payload length followed by the payload; the payload's
// first byte is the type.
const (
	frameHello   = byte(1) // handshake: version, identity, fingerprint, opcode table
	frameRound   = byte(2) // one barrier contribution: run, round, rank counts, delivery batch
	frameFinal   = byte(3) // quiescence all-gather: a shard (counters, owned states) with no runs
	frameCkpt    = byte(4) // checkpoint shard upload to the coordinator, one run per destination
	frameCkptAck = byte(5) // coordinator's checkpoint commit acknowledgement
	frameHeart   = byte(6) // liveness beacon: sender's data-frame count for this peer
)

// MaxFrameSize bounds a single frame's payload. Large runs batch many
// deliveries per barrier, but a frame over this size on a loopback
// deployment indicates corruption, not load.
const MaxFrameSize = 1 << 26 // 64 MiB

// frameHeaderSize is the fixed length prefix.
const frameHeaderSize = 4

// FrameError is the typed error for malformed frames: truncated input,
// oversized or empty payloads, unknown frame types, or payloads that do
// not parse. Transport code returns it — never panics — on any byte-level
// violation, mirroring sim.WireError.
type FrameError struct {
	Type   byte // 0 when the violation precedes the type byte
	Reason string
}

func (e *FrameError) Error() string {
	if e.Type != 0 {
		return fmt.Sprintf("net: frame type %d: %s", e.Type, e.Reason)
	}
	return "net: frame: " + e.Reason
}

// appendFrame appends a complete frame (header + type + body) to b.
func appendFrame(b []byte, typ byte, body []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body)+1))
	b = append(b, typ)
	return append(b, body...)
}

// writeFrame writes one frame to w. Allocates its header on the heap (a
// stack array would escape through the io.Writer call) — the handshake
// path, where frames are rare; the send loop uses writeFrameScratch.
func writeFrame(w io.Writer, typ byte, body []byte) error {
	var hdr [frameHeaderSize + 1]byte
	return writeFrameScratch(w, &hdr, typ, body)
}

// writeFrameScratch is writeFrame over a caller-owned header buffer, so
// the steady-state send path performs zero allocations per frame. The
// caller must serialise uses of one scratch (the transport holds it under
// the peer's write mutex).
func writeFrameScratch(w io.Writer, hdr *[frameHeaderSize + 1]byte, typ byte, body []byte) error {
	if len(body)+1 > MaxFrameSize {
		return &FrameError{Type: typ, Reason: fmt.Sprintf("payload %d bytes exceeds MaxFrameSize", len(body)+1)}
	}
	binary.LittleEndian.PutUint32(hdr[:frameHeaderSize], uint32(len(body)+1))
	hdr[frameHeaderSize] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// readFrame reads one frame from r, returning the type and payload body
// (without the type byte). io.EOF is returned untouched at a clean frame
// boundary so callers can distinguish orderly shutdown from truncation;
// any other byte-level violation is a *FrameError. Allocates a fresh
// buffer per frame — the handshake path, where frames are rare.
func readFrame(r io.Reader) (byte, []byte, error) {
	var buf []byte
	return readFrameReuse(r, &buf)
}

// readFrameReuse is readFrame over a caller-owned buffer: the payload is
// read into *buf, growing it only when a frame outsizes every previous
// occupant (the grown buffer is stored back for next time), so the
// steady-state read loop recycles one buffer per ring slot instead of
// allocating per frame. The returned payload aliases *buf and is valid
// until the caller reuses the slot.
func readFrameReuse(r io.Reader, buf *[]byte) (byte, []byte, error) {
	// The header is read into the reusable buffer too — a stack array
	// would escape through the io.Reader call and cost an allocation per
	// frame.
	b := *buf
	if cap(b) < frameHeaderSize {
		b = make([]byte, frameHeaderSize, 64)
		*buf = b
	}
	b = b[:frameHeaderSize]
	if _, err := io.ReadFull(r, b); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, &FrameError{Reason: "truncated frame header"}
	}
	size := binary.LittleEndian.Uint32(b)
	if size == 0 {
		return 0, nil, &FrameError{Reason: "empty frame"}
	}
	if size > MaxFrameSize {
		return 0, nil, &FrameError{Reason: fmt.Sprintf("frame of %d bytes exceeds MaxFrameSize", size)}
	}
	if uint32(cap(b)) < size {
		b = make([]byte, size)
		*buf = b
	}
	b = b[:size]
	if _, err := io.ReadFull(r, b); err != nil {
		return 0, nil, &FrameError{Reason: "truncated frame payload"}
	}
	typ := b[0]
	if typ < frameHello || typ > frameHeart {
		return 0, nil, &FrameError{Type: typ, Reason: "unknown frame type"}
	}
	return typ, b[1:], nil
}

// frameFail holds one cursor failure constructor per frame type, built
// once, so a frame's cursor reports a *FrameError carrying its type
// without allocating per frame.
var frameFail = func() (fs [frameHeart + 1]func(string) error) {
	for typ := range fs {
		fs[typ] = func(reason string) error { return &FrameError{Type: byte(typ), Reason: reason} }
	}
	return fs
}()

// frameCursor starts sim's bounded cursor over a payload of frame type typ.
func frameCursor(typ byte, payload []byte) sim.Cursor { return sim.NewCursor(payload, frameFail[typ]) }

// readRank reads a non-negative rank-sized value (a rank space or a
// delivered count), bounded like the decoders' accumulated ranks.
func readRank(r *sim.Cursor, what string) int64 {
	v := r.Uvarint()
	if v >= uint64(limitRank) {
		r.Fail(what + " outside the rank bound")
		return 0
	}
	return int64(v)
}

// appendUvarint/appendVarint keep the codec vocabulary local.
func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }
func appendVarint(b []byte, v int64) []byte   { return binary.AppendVarint(b, v) }
