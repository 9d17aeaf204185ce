package sim

import (
	"fmt"
	"io"
	"math"
	"sync"
)

// The compact binary trace form. A text trace of a large run is hundreds
// of megabytes of formatted strings; the binary form writes each delivery
// as a handful of varints (the flat wire record serialises directly) and
// renders back to the exact same TraceEvents on read. The file carries the
// same kind-string opcode table as checkpoints, so traces survive registry
// renumbering across binaries.
//
// Format: magic | version | record stream. The opcode table is inline:
// the first time an opcode appears it is written as 0 followed by its kind
// string, assigning the next file-local index; later occurrences write the
// index. Records:
//
//	0x01 delivery: time (uvarint of float64 bits), depth, from, to, wire record
//	0x02 note:     time, depth, to, len-prefixed string

var traceMagic = [8]byte{'M', 'D', 'G', 'S', 'T', 'T', 'R', '1'}

// TraceVersion is the binary trace format version.
const TraceVersion = 1

const (
	traceRecDelivery = 0x01
	traceRecNote     = 0x02
)

// traceScratchPool recycles the writer's encode buffer: tracing is per
// delivery, and the harness runs thousands of traced executions, so the
// scratch must not be a per-writer (let alone per-event) allocation.
var traceScratchPool = sync.Pool{New: func() any { return make([]byte, 0, 4096) }}

// BinaryTraceWriter encodes TraceEvents to w in the compact binary form.
// Use the Trace method as an engine's Trace callback and Close when the
// run finished. Not safe for concurrent use (engine trace callbacks are
// serialised).
type BinaryTraceWriter struct {
	w   io.Writer
	buf []byte // pooled scratch, flushed when it grows past flushAt
	tab *kindTable
	enc func(Op) uint64 // tab.enc, bound once
	err error
}

const traceFlushAt = 1 << 15

// NewBinaryTraceWriter starts a binary trace on w, writing the header.
func NewBinaryTraceWriter(w io.Writer) *BinaryTraceWriter {
	t := &BinaryTraceWriter{
		w:   w,
		buf: traceScratchPool.Get().([]byte)[:0],
		tab: newKindTable(),
	}
	t.enc = t.tab.enc
	t.buf = append(t.buf, traceMagic[:]...)
	t.buf = appendUvarint(t.buf, TraceVersion)
	return t
}

// Trace encodes one event; it is shaped to be an engine Trace callback.
func (t *BinaryTraceWriter) Trace(e TraceEvent) {
	if t.err != nil {
		return
	}
	if e.IsMessage() {
		t.buf = append(t.buf, traceRecDelivery)
		t.buf = appendUvarint(t.buf, math.Float64bits(e.Time))
		t.buf = appendVarint(t.buf, e.Depth)
		t.buf = appendVarint(t.buf, int64(e.From))
		t.buf = appendVarint(t.buf, int64(e.To))
		// An opcode's first use splices its inline table entry ahead of
		// the record's wire bytes.
		if known := len(t.tab.kinds); t.enc(e.Msg.Op) == uint64(known) {
			kind := t.tab.kinds[known]
			t.buf = appendUvarint(t.buf, 0)
			t.buf = appendUvarint(t.buf, uint64(len(kind)))
			t.buf = append(t.buf, kind...)
		}
		t.buf = AppendWire(t.buf, e.Msg, t.enc)
	} else {
		t.buf = append(t.buf, traceRecNote)
		t.buf = appendUvarint(t.buf, math.Float64bits(e.Time))
		t.buf = appendVarint(t.buf, e.Depth)
		t.buf = appendVarint(t.buf, int64(e.To))
		t.buf = appendUvarint(t.buf, uint64(len(e.Note)))
		t.buf = append(t.buf, e.Note...)
	}
	if len(t.buf) >= traceFlushAt {
		t.flush()
	}
}

func (t *BinaryTraceWriter) flush() {
	if t.err != nil || len(t.buf) == 0 {
		return
	}
	_, t.err = t.w.Write(t.buf)
	t.buf = t.buf[:0]
}

// Err returns the first write error.
func (t *BinaryTraceWriter) Err() error { return t.err }

// Close flushes buffered records and returns the pooled scratch. The
// writer must not be used afterwards.
func (t *BinaryTraceWriter) Close() error {
	t.flush()
	if t.buf != nil {
		traceScratchPool.Put(t.buf[:0])
		t.buf = nil
	}
	return t.err
}

// traceFail is the binary trace's cursor failure.
func traceFail(reason string) error { return &WireError{Reason: "binary trace: " + reason} }

// ReadBinaryTrace decodes a binary trace back into TraceEvents. Malformed
// input returns a typed *WireError, never a panic.
func ReadBinaryTrace(r io.Reader) ([]TraceEvent, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	if len(raw) < len(traceMagic) || string(raw[:len(traceMagic)]) != string(traceMagic[:]) {
		return nil, traceFail("bad magic")
	}
	c := NewCursor(raw[len(traceMagic):], traceFail)
	if v := c.Uvarint(); c.Err() == nil && v != TraceVersion {
		return nil, traceFail(fmt.Sprintf("unsupported version %d", v))
	}
	tab := newKindTable()
	var events []TraceEvent
	for c.Len() > 0 {
		tag := c.Bytes(1)[0]
		e := TraceEvent{Time: math.Float64frombits(c.Uvarint()), Depth: c.Varint()}
		switch tag {
		case traceRecDelivery:
			e.From, e.To = NodeID(c.Varint()), NodeID(c.Varint())
			// Inline table entries (a zero byte, then the kind) precede
			// the opcode they define.
			for c.Len() > 0 && c.buf[c.at] == 0 {
				c.at++
				if kind := c.Bytes(c.Uvarint()); c.Err() == nil && !tab.learn(string(kind)) {
					return nil, traceFail(fmt.Sprintf("unknown message kind %q", kind))
				}
			}
			e.Msg = c.Wire(tab.dec)
		case traceRecNote:
			e.To = NodeID(c.Varint())
			e.Note = string(c.Bytes(c.Uvarint()))
		default:
			return nil, traceFail(fmt.Sprintf("unknown record 0x%02x", tag))
		}
		if err := c.Err(); err != nil {
			return nil, err
		}
		events = append(events, e)
	}
	return events, nil
}
