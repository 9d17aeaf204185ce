package sim

import (
	"bytes"
	"errors"
	"testing"

	"mdegst/internal/graph"
)

// FuzzWireCodec fuzzes the wire codec from both directions. Structured
// inputs (opcode choice + payload words) must encode -> decode -> encode
// byte-identically; raw byte inputs must either decode to a record that
// re-encodes to exactly the consumed bytes or fail with a typed
// *WireError — never panic, never misparse.
func FuzzWireCodec(f *testing.F) {
	f.Add(uint8(0), int64(0), int64(0), int64(0), []byte{})
	f.Add(uint8(1), int64(42), int64(-1), int64(1<<40), []byte{0x01, 0x01, 0x02})
	f.Add(uint8(2), int64(-12345), int64(7), int64(0), []byte{0x00})
	f.Add(uint8(3), int64(1), int64(2), int64(3), []byte{0x01, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, opSel uint8, w0, w1, w2 int64, raw []byte) {
		// Direction 1: structured round trip over the registered test ops.
		ops := []WireMsg{tokenMsg(int(w0)), seqMsg(int(w1)), floodMsg()}
		m := ops[int(opSel)%len(ops)]
		if m.Nw > 0 {
			m.W[0] = w2 // arbitrary payload values must survive
		}
		enc := AppendWire(nil, m, nil)
		got, used, err := DecodeWire(enc, nil)
		if err != nil {
			t.Fatalf("decode of valid encoding failed: %v", err)
		}
		if used != len(enc) || got != m {
			t.Fatalf("round trip: %+v -> %+v (used %d of %d)", m, got, used, len(enc))
		}
		if re := AppendWire(nil, got, nil); string(re) != string(enc) {
			t.Fatalf("re-encode not byte-identical: %x vs %x", re, enc)
		}

		// Direction 2: arbitrary bytes decode cleanly or fail typed.
		dm, dused, derr := DecodeWire(raw, nil)
		if derr != nil {
			var we *WireError
			if !errors.As(derr, &we) {
				t.Fatalf("malformed input error %v is not a *WireError", derr)
			}
			return
		}
		if derr := dm.Validate(); derr != nil {
			t.Fatalf("decode accepted an invalid record: %v", derr)
		}
		if re := AppendWire(nil, dm, nil); string(re) != string(raw[:dused]) {
			// The only legitimate difference is non-minimal varint
			// encodings in the input; re-decoding must still agree.
			rm, _, rerr := DecodeWire(re, nil)
			if rerr != nil || rm != dm {
				t.Fatalf("canonical re-encoding diverged: %+v vs %+v (%v)", dm, rm, rerr)
			}
		}
	})
}

// FuzzCheckpointRead fuzzes the checkpoint file reader: arbitrary bytes
// must never panic, and any accepted input must round-trip Write -> Read.
func FuzzCheckpointRead(f *testing.F) {
	// A tiny valid checkpoint as seed corpus, and one of each kind of
	// counters a report cannot hold, and a pending record whose round
	// word is out of range.
	seed := func(edit func(ck *Checkpoint)) []byte {
		ck := &Checkpoint{Round: 2, N: 1, HalfEdges: 0, Messages: 3}
		ck.KindRounds = []KindRoundCount{{opToken, 0, 3}}
		ck.SentBy = []SentByCount{{0, 3}}
		ck.States = [][]byte{{}}
		ck.Pending = []PendingDelivery{{From: 0, To: 0, Msg: tokenMsg(1)}}
		edit(ck)
		w := &sliceWriter{}
		if err := ck.Write(w); err != nil {
			f.Fatal(err)
		}
		return w.b
	}
	f.Add(seed(func(*Checkpoint) {}))
	for _, edit := range badCounters {
		f.Add(seed(edit))
	}
	f.Add(seed(func(ck *Checkpoint) { ck.Pending[0].Msg = krMsg(1 << 16) }))
	f.Add([]byte("MDGSTCK1 garbage"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := ReadCheckpoint(bytes.NewReader(raw))
		if err != nil {
			var ce *CheckpointError
			var we *WireError
			if !errors.As(err, &ce) && !errors.As(err, &we) {
				t.Fatalf("error %v is neither *CheckpointError nor *WireError", err)
			}
			return
		}
		w := &sliceWriter{}
		if err := got.Write(w); err != nil {
			t.Fatalf("re-write of accepted checkpoint failed: %v", err)
		}
		re, err := ReadCheckpoint(bytes.NewReader(w.b))
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if re.Round != got.Round || re.N != got.N || len(re.Pending) != len(got.Pending) {
			t.Fatalf("round trip diverged: %+v vs %+v", re, got)
		}
	})
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }

// FuzzBinaryTraceRead fuzzes the binary trace reader: arbitrary bytes must
// decode or fail with a typed *WireError, never panic. A writer-produced
// trace reads back and re-encodes to the same bytes, and re-encoding any
// accepted input is a fixed point.
func FuzzBinaryTraceRead(f *testing.F) {
	var seed bytes.Buffer
	bw := NewBinaryTraceWriter(&seed)
	eng := &EventEngine{Delay: UnitDelay, FIFO: true, Trace: bw.Trace}
	if _, _, err := eng.Run(graph.Gnp(12, 0.4, 3).Compile(), tokenFactory(12)); err != nil {
		f.Fatal(err)
	}
	if err := bw.Close(); err != nil {
		f.Fatal(err)
	}
	if got := rewriteTrace(f, seed.Bytes()); !bytes.Equal(got, seed.Bytes()) {
		f.Fatalf("writer-produced trace re-encodes to %d bytes, want the %d it was read from", len(got), seed.Len())
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()/2])
	f.Add([]byte("MDGSTTR1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		events, err := ReadBinaryTrace(bytes.NewReader(raw))
		if err != nil {
			var we *WireError
			if !errors.As(err, &we) {
				t.Fatalf("error %v is not a *WireError", err)
			}
			return
		}
		once := rewriteTrace(t, raw)
		if twice := rewriteTrace(t, once); !bytes.Equal(once, twice) {
			t.Fatalf("re-encoding an accepted trace is not a fixed point: %d vs %d bytes", len(once), len(twice))
		}
		if again, err := ReadBinaryTrace(bytes.NewReader(once)); err != nil || len(again) != len(events) {
			t.Fatalf("re-read of %d events: %d events, %v", len(events), len(again), err)
		}
	})
}

// rewriteTrace reads a binary trace and writes its events back out.
func rewriteTrace(t testing.TB, raw []byte) []byte {
	t.Helper()
	events, err := ReadBinaryTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	bw := NewBinaryTraceWriter(&out)
	for _, e := range events {
		bw.Trace(e)
	}
	if err := bw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
