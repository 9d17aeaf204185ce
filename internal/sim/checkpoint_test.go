package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"mdegst/internal/graph"
)

// tokenNode gains checkpoint support for the engine-level tests: the whole
// mutable state is the seen counter.
func (n *tokenNode) EncodeState(e *StateEncoder) {
	e.Int(int64(n.seen))
}

func (n *tokenNode) DecodeState(d *StateDecoder) error {
	n.seen = int(d.Int())
	return d.Err()
}

// runTraced executes the factory on eng collecting the trace.
func runTraced(t *testing.T, mkEng func(trace func(TraceEvent)) Engine, c *graph.CSR, f Factory) ([]Protocol, *Report, []TraceEvent) {
	t.Helper()
	var events []TraceEvent
	eng := mkEng(func(e TraceEvent) { events = append(events, e) })
	protos, rep, err := eng.Run(c, f)
	if err != nil {
		t.Fatal(err)
	}
	return protos, rep, events
}

// TestCheckpointResumeEveryBarrier is the core differential: a run
// interrupted at every reachable round barrier and resumed must reproduce
// the uninterrupted run's delivery trace (checkpoint-leg prefix + resume
// leg), Report and final protocol states.
func TestCheckpointResumeEveryBarrier(t *testing.T) {
	c := graph.Gnm(24, 72, 5).Compile()
	factory := tokenFactory(30)

	fullProtos, fullRep, fullTrace := runTraced(t, func(tr func(TraceEvent)) Engine {
		return &EventEngine{Delay: UnitDelay, FIFO: true, Trace: tr}
	}, c, factory)
	finalRound := int64(fullRep.VirtualTime)
	if finalRound < 3 {
		t.Fatalf("workload too short for the barrier sweep: %v rounds", finalRound)
	}

	for r := int64(0); r <= finalRound; r++ {
		var buf bytes.Buffer
		var prefix []TraceEvent
		eng := &EventEngine{Delay: UnitDelay, FIFO: true, Checkpoint: &CheckpointSpec{Round: r, W: &buf},
			Trace: func(e TraceEvent) { prefix = append(prefix, e) }}
		_, _, err := eng.Run(c, factory)
		if !errors.Is(err, ErrCheckpointed) {
			t.Fatalf("r=%d: err = %v, want ErrCheckpointed", r, err)
		}
		ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("r=%d: read: %v", r, err)
		}
		if ck.Round != r {
			t.Fatalf("r=%d: checkpoint round %d", r, ck.Round)
		}
		var resumeTrace []TraceEvent
		reng := &EventEngine{Delay: UnitDelay, FIFO: true, Trace: func(e TraceEvent) { resumeTrace = append(resumeTrace, e) }}
		protos, rep, err := reng.Resume(c, factory, ck)
		if err != nil {
			t.Fatalf("r=%d resume: %v", r, err)
		}
		whole := append(append([]TraceEvent{}, prefix...), resumeTrace...)
		if !reflect.DeepEqual(whole, fullTrace) {
			t.Fatalf("r=%d resume: stitched trace diverges (%d+%d vs %d events)",
				r, len(prefix), len(resumeTrace), len(fullTrace))
		}
		assertReportsEqual(t, fmt.Sprintf("r=%d", r), rep, fullRep)
		for id, p := range protos {
			if p.(*tokenNode).seen != fullProtos[id].(*tokenNode).seen {
				t.Fatalf("r=%d resume: node %d state diverged", r, id)
			}
		}
	}
}

// assertReportsEqual compares every deterministic Report field (Wall is
// host time and excluded).
func assertReportsEqual(t *testing.T, label string, got, want *Report) {
	t.Helper()
	got.Finalize()
	want.Finalize()
	if got.Messages != want.Messages || got.Words != want.Words || got.MaxWords != want.MaxWords ||
		got.CausalDepth != want.CausalDepth || got.VirtualTime != want.VirtualTime {
		t.Fatalf("%s: scalar report fields diverge:\n got %+v\nwant %+v", label, got, want)
	}
	if !reflect.DeepEqual(got.ByKind, want.ByKind) || !reflect.DeepEqual(got.ByRound, want.ByRound) ||
		!reflect.DeepEqual(got.ByKindRound, want.ByKindRound) || !reflect.DeepEqual(got.SentBy, want.SentBy) {
		t.Fatalf("%s: report breakdowns diverge:\n got %+v\nwant %+v", label, got, want)
	}
}

// TestCheckpointFileDeterminism pins byte-exactness: the same barrier
// produces the same file on every run.
func TestCheckpointFileDeterminism(t *testing.T) {
	c := graph.Gnm(24, 72, 5).Compile()
	factory := tokenFactory(30)
	write := func() []byte {
		var buf bytes.Buffer
		eng := &EventEngine{Delay: UnitDelay, FIFO: true, Checkpoint: &CheckpointSpec{Round: 4, W: &buf}}
		if _, _, err := eng.Run(c, factory); !errors.Is(err, ErrCheckpointed) {
			t.Fatalf("err = %v", err)
		}
		return buf.Bytes()
	}
	if ref, again := write(), write(); !bytes.Equal(ref, again) {
		t.Error("repeated checkpoint not byte-identical")
	}
}

// TestCheckpointErrors pins the typed failure modes.
func TestCheckpointErrors(t *testing.T) {
	c := graph.Gnm(12, 30, 1).Compile()
	var ce *CheckpointError

	// Non-unit tiers have no barriers.
	var buf bytes.Buffer
	eng := &EventEngine{Delay: UniformDelay(0.1), FIFO: true, Checkpoint: &CheckpointSpec{Round: 1, W: &buf}}
	if _, _, err := eng.Run(c, tokenFactory(10)); !errors.Is(err, errCheckpointTier) {
		t.Errorf("wheel tier checkpoint: %v", err)
	}

	// A checkpoint resumed against a different graph is rejected.
	buf.Reset()
	eng = &EventEngine{Delay: UnitDelay, FIFO: true, Checkpoint: &CheckpointSpec{Round: 2, W: &buf}}
	if _, _, err := eng.Run(c, tokenFactory(10)); !errors.Is(err, ErrCheckpointed) {
		t.Fatalf("checkpoint: %v", err)
	}
	ck, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	other := graph.Gnm(13, 30, 2).Compile()
	if _, _, err := (&EventEngine{Delay: UnitDelay, FIFO: true}).Resume(other, tokenFactory(10), ck); !errors.As(err, &ce) {
		t.Errorf("mismatched snapshot: %v", err)
	}

	// Protocols without StateCodec cannot checkpoint.
	buf.Reset()
	eng = &EventEngine{Delay: UnitDelay, Checkpoint: &CheckpointSpec{Round: 1, W: &buf}}
	if _, _, err := eng.Run(graph.Ring(4).Compile(), func(NodeID, []NodeID) Protocol { return chainReaction{} }); !errors.As(err, &ce) {
		t.Errorf("no StateCodec: %v", err)
	}

	// Corrupted files fail with a typed error.
	buf.Reset()
	eng = &EventEngine{Delay: UnitDelay, FIFO: true, Checkpoint: &CheckpointSpec{Round: 2, W: &buf}}
	if _, _, err := eng.Run(c, tokenFactory(10)); !errors.Is(err, ErrCheckpointed) {
		t.Fatal(err)
	}
	corrupt := append([]byte{}, buf.Bytes()...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := ReadCheckpoint(bytes.NewReader(corrupt)); !errors.As(err, &ce) {
		t.Errorf("corrupted file: %v", err)
	}
}

// TestBinaryTraceRoundTrip pins the compact trace form: the traces of both
// EventEngine tiers survive the byte round trip exactly.
func TestBinaryTraceRoundTrip(t *testing.T) {
	c := graph.Gnp(20, 0.3, 3).Compile()
	for name, delay := range map[string]DelayFn{"unit": UnitDelay, "uniform": UniformDelay(0.1)} {
		t.Run(name, func(t *testing.T) {
			var want []TraceEvent
			var buf bytes.Buffer
			bw := NewBinaryTraceWriter(&buf)
			eng := &EventEngine{Delay: delay, Seed: 5, FIFO: true, Trace: func(e TraceEvent) {
				want = append(want, e)
				bw.Trace(e)
			}}
			if _, _, err := eng.Run(c, tokenFactory(40)); err != nil {
				t.Fatal(err)
			}
			if err := bw.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := ReadBinaryTrace(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("binary trace round trip diverged: %d vs %d events", len(got), len(want))
			}
			if len(want) == 0 {
				t.Fatal("trace empty; workload misconfigured")
			}
			// The binary form must undercut a naive textual rendering.
			var text int
			for _, e := range want {
				text += len(e.String())
			}
			if buf.Len() >= text {
				t.Errorf("binary trace (%d bytes) not smaller than text (%d bytes)", buf.Len(), text)
			}

			// Malformed bytes fail cleanly.
			if _, err := ReadBinaryTrace(bytes.NewReader([]byte("junk"))); err == nil {
				t.Error("junk accepted as a binary trace")
			}
			trunc := buf.Bytes()[:buf.Len()-3]
			if _, err := ReadBinaryTrace(bytes.NewReader(trunc)); err == nil {
				t.Error("truncated trace accepted")
			}
		})
	}
}

// TestCheckpointHugeCountsRejected pins the allocation bound: a tiny
// CRC-valid file declaring enormous element counts must fail with a typed
// error before any count-sized allocation happens (a crafted file must
// never be able to take the process down).
func TestCheckpointHugeCountsRejected(t *testing.T) {
	craft := func(mutate func(body []byte) []byte) []byte {
		var body []byte
		body = appendVarint(body, 2)  // round
		body = appendUvarint(body, 4) // n
		body = appendUvarint(body, 8) // halfEdges
		body = appendVarint(body, 10) // messages
		body = appendVarint(body, 20) // words
		body = appendUvarint(body, 2) // maxWords
		body = appendVarint(body, 2)  // causalDepth
		body = mutate(body)           // section counts under attack
		var out []byte
		out = append(out, ckptMagic[:]...)
		out = appendUvarint(out, CheckpointVersion)
		out = appendUvarint(out, 0) // empty opcode table
		out = appendUvarint(out, uint64(len(body)))
		out = append(out, body...)
		return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	}
	var ce *CheckpointError
	for name, mutate := range map[string]func([]byte) []byte{
		"kindRounds": func(b []byte) []byte { return appendUvarint(b, 1<<35) },
		"sentBy": func(b []byte) []byte {
			b = appendUvarint(b, 0) // kindRounds
			return appendUvarint(b, 1<<35)
		},
		"states": func(b []byte) []byte {
			b = appendUvarint(b, 0) // kindRounds
			b = appendUvarint(b, 0) // sentBy
			return appendUvarint(b, 1<<35)
		},
		"pending": func(b []byte) []byte {
			b = appendUvarint(b, 0) // kindRounds
			b = appendUvarint(b, 0) // sentBy
			b = appendUvarint(b, 0) // states (n mismatch is fine: count check runs first)
			return appendUvarint(b, 1<<35)
		},
	} {
		if _, err := ReadCheckpoint(bytes.NewReader(craft(mutate))); !errors.As(err, &ce) {
			t.Errorf("%s: err = %v, want *CheckpointError", name, err)
		}
	}
}

// TestCheckpointSpecNext pins the one barrier rule both round drivers
// share: the next commit or freeze barrier after round r.
func TestCheckpointSpecNext(t *testing.T) {
	for _, tc := range []struct {
		spec *CheckpointSpec
		r    int64
		want int64
	}{
		{nil, -1, -1},
		{&CheckpointSpec{Round: 0}, -1, 0},
		{&CheckpointSpec{Round: 0}, 0, -1},
		{&CheckpointSpec{Round: 5}, -1, 5},
		{&CheckpointSpec{Round: 5}, 4, 5},
		{&CheckpointSpec{Round: 5}, 5, -1},
		{&CheckpointSpec{Round: -1}, -1, -1},
		{&CheckpointSpec{Every: 3, Round: 1}, -1, 3},
		{&CheckpointSpec{Every: 3}, 2, 3},
		{&CheckpointSpec{Every: 3}, 3, 6},
	} {
		if got := tc.spec.Next(tc.r); got != tc.want {
			t.Errorf("%+v.Next(%d) = %d, want %d", tc.spec, tc.r, got, tc.want)
		}
	}
}
