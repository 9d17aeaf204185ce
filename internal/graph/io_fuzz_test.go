package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzReadEdgeList throws arbitrary text at the parser: it must never panic,
// and whenever it accepts the input the parsed graph must survive a
// write/read round trip unchanged.
func FuzzReadEdgeList(f *testing.F) {
	seedGraphs := []*Graph{Ring(5), Star(6), Gnm(12, 20, 1)}
	for _, g := range seedGraphs {
		var b bytes.Buffer
		if err := WriteEdgeList(&b, g); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Add([]byte("2 1\n1 2\n"))
	f.Add([]byte("# comment\n3 0\nv 1\nv 2\nv 3\n"))
	f.Add([]byte("1 1\n5 5\n"))      // self-loop
	f.Add([]byte("2 2\n1 2\n1 2\n")) // duplicate edge
	f.Add([]byte("9 9\n"))           // header promises more than the body has
	f.Add([]byte("x y\n"))           // bad header
	f.Add([]byte("2 1\n1 2\nv\n"))   // short node line
	f.Add([]byte("2 1\n1 2 3\n"))    // long edge line
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted graph fails validation: %v", err)
		}
		var out bytes.Buffer
		if err := WriteEdgeList(&out, g); err != nil {
			t.Fatalf("re-encode: %v", err)
		}
		g2, err := ReadEdgeList(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("round trip rejected: %v", err)
		}
		if !sameGraph(g, g2) {
			t.Fatalf("round trip changed the graph: %v vs %v", g, g2)
		}
	})
}

// TestEdgeListRoundTripRandom is the deterministic slice of the fuzz
// property, run on every `go test`: random graphs (including isolated nodes
// and scrambled identities) survive the write/read round trip exactly.
func TestEdgeListRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		g := Gnm(2+rng.Intn(50), rng.Intn(120), rng.Int63())
		if trial%2 == 0 {
			g, _ = RelabelRandom(g, rng.Int63())
		}
		for k := 0; k < trial%4; k++ {
			g.AddNode(NodeID(1_000_000 + trial*10 + k)) // isolated nodes
		}
		var b bytes.Buffer
		if err := WriteEdgeList(&b, g); err != nil {
			t.Fatal(err)
		}
		got, err := ReadEdgeList(bytes.NewReader(b.Bytes()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, b.String())
		}
		if !sameGraph(g, got) {
			t.Fatalf("trial %d: round trip changed the graph", trial)
		}
	}
}

func sameGraph(a, b *Graph) bool {
	return a.N() == b.N() && a.M() == b.M() &&
		reflect.DeepEqual(a.Nodes(), b.Nodes()) &&
		reflect.DeepEqual(a.Edges(), b.Edges())
}
