package sim

import (
	"errors"
	"testing"
)

// TestRegistryInvariants pins the schema registry's contract: non-empty
// vocabularies, globally unique kinds, payload bounds inside the record,
// rounded ops with a word 0 to carry the round.
func TestRegistryInvariants(t *testing.T) {
	seen := map[string]string{}
	for _, s := range Schemas() {
		if s.Len() == 0 {
			t.Errorf("schema %q has no opcodes", s.Proto())
		}
		for i := 0; i < s.Len(); i++ {
			sp := s.Spec(i)
			op := s.Op(i)
			if prev, dup := seen[sp.Kind]; dup {
				t.Errorf("kind %q registered by both %q and %q", sp.Kind, prev, s.Proto())
			}
			seen[sp.Kind] = s.Proto()
			if got, ok := OpByKind(sp.Kind); !ok || got != op {
				t.Errorf("OpByKind(%q) = %v,%v, want %v", sp.Kind, got, ok, op)
			}
			if sp.MinPayload < 0 || sp.MaxPayload > MaxPayloadWords || sp.MinPayload > sp.MaxPayload {
				t.Errorf("kind %q payload bounds [%d,%d] invalid", sp.Kind, sp.MinPayload, sp.MaxPayload)
			}
			if sp.Rounded && sp.MinPayload < 1 {
				t.Errorf("rounded kind %q has no payload word 0", sp.Kind)
			}
			m := WireMsg{Op: op, Nw: uint8(sp.MinPayload)}
			if m.Kind() != sp.Kind {
				t.Errorf("Kind(%v) = %q, want %q", op, m.Kind(), sp.Kind)
			}
			if m.Words() != 1+sp.MinPayload {
				t.Errorf("%q words = %d, want 1+%d", sp.Kind, m.Words(), sp.MinPayload)
			}
		}
	}
}

// TestWireMsgAccessors pins the flat record's derived views.
func TestWireMsgAccessors(t *testing.T) {
	var zero WireMsg
	if zero.Op != OpNone || zero.Words() != 1 {
		t.Errorf("zero record: op=%d words=%d", zero.Op, zero.Words())
	}
	m := tokenMsg(7)
	if m.Kind() != "token" || m.Words() != 2 {
		t.Errorf("token record: kind=%q words=%d", m.Kind(), m.Words())
	}
	if err := m.Validate(); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	bad := WireMsg{Op: opToken, Nw: 5}
	var we *WireError
	if err := bad.Validate(); !errors.As(err, &we) {
		t.Errorf("out-of-bounds payload: %v", err)
	}
}

// TestWireCodecRoundTrip pins the byte codec: encode -> decode -> encode is
// byte-identical, with and without opcode translation.
func TestWireCodecRoundTrip(t *testing.T) {
	msgs := []WireMsg{
		tokenMsg(0), tokenMsg(-12345), tokenMsg(1 << 40),
		seqMsg(99), floodMsg(),
	}
	var buf []byte
	for _, m := range msgs {
		buf = AppendWire(buf, m, nil)
	}
	at := 0
	for i, want := range msgs {
		got, used, err := DecodeWire(buf[at:], nil)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("decode %d: %+v != %+v", i, got, want)
		}
		re := AppendWire(nil, got, nil)
		if string(re) != string(buf[at:at+used]) {
			t.Fatalf("re-encode %d not byte-identical", i)
		}
		at += used
	}
	if at != len(buf) {
		t.Fatalf("trailing bytes: %d", len(buf)-at)
	}
}

// TestWireCodecMalformed pins the typed-error contract on malformed bytes.
func TestWireCodecMalformed(t *testing.T) {
	var we *WireError
	for name, b := range map[string][]byte{
		"empty":            {},
		"unknown op":       AppendWire(nil, WireMsg{Op: Op(NumOps() + 7), Nw: 0}, func(Op) uint64 { return uint64(NumOps() + 7) }),
		"zero op":          {0x00, 0x00},
		"truncated count":  {0x01},
		"huge count":       {0x01, 0xff, 0xff, 0x01},
		"truncated word":   {0x01, 0x01},
		"out of op bounds": AppendWire(nil, WireMsg{Op: opFlood, Nw: 3}, nil),
		"round -1":         AppendWire(nil, krMsg(-1), nil),
		"round 2^16":       AppendWire(nil, krMsg(1<<16), nil),
	} {
		m, _, err := DecodeWire(b, nil)
		if err == nil {
			t.Errorf("%s: decoded %+v, want error", name, m)
			continue
		}
		if !errors.As(err, &we) {
			t.Errorf("%s: error %v is not a *WireError", name, err)
		}
	}
}
