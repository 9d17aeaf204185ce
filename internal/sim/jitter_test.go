package sim

import (
	"testing"
	"time"

	"mdegst/internal/graph"
)

// TestAsyncJitterPreservesFIFO exercises the per-link forwarder path: with
// jitter enabled, per-link order must still hold and the run must quiesce.
func TestAsyncJitterPreservesFIFO(t *testing.T) {
	g := graph.Path(2)
	const count = 32
	factory := func(id NodeID, _ []NodeID) Protocol { return &seqSender{id: id, count: count} }
	eng := &AsyncEngine{Seed: 7, Jitter: 200 * time.Microsecond}
	protos, rep, err := eng.Run(g.Compile(), factory)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Messages != count {
		t.Errorf("messages = %d, want %d", rep.Messages, count)
	}
	got := protos[1].(*seqSender).got
	if len(got) != count {
		t.Fatalf("received %d of %d", len(got), count)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("link FIFO violated under jitter at %d: got %d", i, v)
		}
	}
}

// TestAsyncJitterFullProtocol runs the flooding benchmark protocol under
// jitter on a non-trivial graph.
func TestAsyncJitterFullProtocol(t *testing.T) {
	g := graph.Gnp(20, 0.3, 5)
	eng := &AsyncEngine{Seed: 3, Jitter: 100 * time.Microsecond}
	protos, rep, err := eng.Run(g.Compile(), benchFactory)
	if err != nil {
		t.Fatal(err)
	}
	for id, p := range protos {
		if !p.(*floodBench).seen {
			t.Errorf("node %d never reached", id)
		}
	}
	if rep.Messages == 0 {
		t.Error("no messages")
	}
}
