package net

import (
	"errors"
	gonet "net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// Transport edge paths: misbehaving peers during establishment and the
// liveness detector's two failure modes. Every test pins the same three
// properties — bounded time, typed error, no leaked goroutines.

// newMeshTuned is newMesh with a hook to configure each transport (faults,
// heartbeat, liveness) before Establish.
func newMeshTuned(t *testing.T, k int, tune func(id int, tr *Transport)) []*Transport {
	t.Helper()
	lns := make([]gonet.Listener, k)
	addrs := make([]string, k)
	for i := range lns {
		ln, err := Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	fp := Fingerprint{Procs: k, N: 8, HalfEdges: 14}
	trs := make([]*Transport, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			trs[i] = NewTransport(lns[i], i, addrs, fp)
			if tune != nil {
				tune(i, trs[i])
			}
			errs[i] = trs[i].Establish(10 * time.Second)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("establishing process %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	return trs
}

// acceptVictim builds process 0 of a 2-process cluster: it dials nobody and
// must accept exactly one hello, so a misbehaving inbound connection is the
// only thing between it and a completed mesh.
func acceptVictim(t *testing.T) (*Transport, string) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), "127.0.0.1:9"}
	return NewTransport(ln, 0, addrs, Fingerprint{Procs: 2, N: 8, HalfEdges: 14}), addrs[0]
}

// TestEstablishHalfOpenPeer connects a peer that never says hello: the
// handshake must fail typed at the deadline instead of wedging the accept
// loop forever.
func TestEstablishHalfOpenPeer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tr, addr := acceptVictim(t)
	conn, err := gonet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	start := time.Now()
	err = tr.Establish(500 * time.Millisecond)
	tr.Close()
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HandshakeError", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("establish took %v against a silent peer", d)
	}
	checkNoLeaks(t, baseline)
}

// TestEstablishTimeoutMidFrame stalls the handshake inside a frame: the
// header promises a payload that never finishes arriving.
func TestEstablishTimeoutMidFrame(t *testing.T) {
	baseline := runtime.NumGoroutine()
	tr, addr := acceptVictim(t)
	conn, err := gonet.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// 64-byte hello frame announced, 3 bytes delivered, then silence.
	if _, err := conn.Write([]byte{64, 0, 0, 0, frameHello, 1, 2}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err = tr.Establish(500 * time.Millisecond)
	tr.Close()
	var he *HandshakeError
	if !errors.As(err, &he) {
		t.Fatalf("got %v, want *HandshakeError", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("establish took %v against a stalled frame", d)
	}
	checkNoLeaks(t, baseline)
}

// TestEstablishDuplicatePeerID sends two hellos claiming the same process
// id: the second registration must be rejected as a typed handshake
// failure — identities are single-use per mesh.
func TestEstablishDuplicatePeerID(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln.Addr().String(), "127.0.0.1:9", "127.0.0.1:10"}
	fp := Fingerprint{Procs: 3, N: 8, HalfEdges: 14}
	tr := NewTransport(ln, 0, addrs, fp)
	estErr := make(chan error, 1)
	go func() { estErr <- tr.Establish(5 * time.Second) }()
	table := CanonicalTable()
	for i := 0; i < 2; i++ {
		conn, err := gonet.Dial("tcp", addrs[0])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := writeFrame(conn, frameHello, appendHello(nil, 1, fp, table)); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case err := <-estErr:
		var he *HandshakeError
		if !errors.As(err, &he) {
			t.Fatalf("got %v, want *HandshakeError for the duplicate identity", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("establish hung on the duplicate identity")
	}
	tr.Close()
	checkNoLeaks(t, baseline)
}

// TestDialRetryAfterRefusals arms injected dial refusals on the dialing
// side: the backoff-retry loop must absorb them and still complete the
// mesh well inside the deadline.
func TestDialRetryAfterRefusals(t *testing.T) {
	baseline := runtime.NumGoroutine()
	trs := newMeshTuned(t, 2, func(id int, tr *Transport) {
		if id == 1 { // the higher id dials
			tr.Faults = &FaultPlan{RefuseDials: 2}
		}
	})
	if err := trs[1].Send(0, frameRound, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].FlushAll(); err != nil {
		t.Fatal(err)
	}
	typ, body, err := trs[0].Recv(1)
	if err != nil || typ != frameRound || len(body) != 1 || body[0] != 9 {
		t.Fatalf("frame after refused dials: type %d body %v err %v", typ, body, err)
	}
	trs[0].Close()
	trs[1].Close()
	checkNoLeaks(t, baseline)
}

// TestEstablishDeadlineAcrossDialRetries points the dialer at a dead
// address: the retry loop must charge every attempt and every backoff to
// one overall deadline and give up on time.
func TestEstablishDeadlineAcrossDialRetries(t *testing.T) {
	baseline := runtime.NumGoroutine()
	ln, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Port 1 on loopback: connections are refused, every attempt fails fast,
	// so only the deadline can stop the retry loop.
	addrs := []string{"127.0.0.1:1", ln.Addr().String()}
	tr := NewTransport(ln, 1, addrs, Fingerprint{Procs: 2, N: 8, HalfEdges: 14})
	start := time.Now()
	err = tr.Establish(400 * time.Millisecond)
	elapsed := time.Since(start)
	tr.Close()
	if err == nil {
		t.Fatal("established a mesh against a dead peer")
	}
	if !strings.Contains(err.Error(), "dialing process 0") {
		t.Fatalf("error does not name the dial phase: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dial retries overshot the 400ms deadline by far: %v", elapsed)
	}
	checkNoLeaks(t, baseline)
}

// TestLivenessSilentPeer: with liveness armed and no heartbeats coming
// back, a blocked Recv must convert total silence into a typed
// *PeerDownError at the window instead of hanging.
func TestLivenessSilentPeer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	trs := newMeshTuned(t, 2, func(id int, tr *Transport) {
		if id == 0 {
			tr.Liveness = 300 * time.Millisecond
		}
	})
	start := time.Now()
	_, _, err := trs[0].Recv(1)
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("got %v, want *PeerDownError for peer 1", err)
	}
	if d := time.Since(start); d < 200*time.Millisecond || d > 5*time.Second {
		t.Fatalf("silence detected after %v, want ≈300ms", d)
	}
	trs[0].Close()
	trs[1].Close()
	checkNoLeaks(t, baseline)
}

// TestLivenessLostFrameClaims: the peer is alive and heartbeating but its
// data frames are being lost (injected 100% drop — the sender still counts
// them). The claim carried by the heartbeats exceeds what arrived, so the
// starved Recv must report the peer down with the claim evidence — the
// detector's answer to a live link that eats frames.
func TestLivenessLostFrameClaims(t *testing.T) {
	baseline := runtime.NumGoroutine()
	trs := newMeshTuned(t, 2, func(id int, tr *Transport) {
		switch id {
		case 0:
			tr.Liveness = 400 * time.Millisecond
		case 1:
			tr.Heartbeat = 25 * time.Millisecond
			tr.Faults = &FaultPlan{Drop: 1}
		}
	})
	if err := trs[1].Send(0, frameRound, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].FlushAll(); err != nil {
		t.Fatal(err)
	}
	_, _, err := trs[0].Recv(1)
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("got %v, want *PeerDownError for peer 1", err)
	}
	if !strings.Contains(err.Error(), "claims") {
		t.Fatalf("detector fired on the wrong evidence: %v", err)
	}
	trs[0].Close()
	trs[1].Close()
	checkNoLeaks(t, baseline)
}

// TestWriteToCrashedPeer: a process that only writes to a crashed peer —
// the lone process of a solo stretch does, several rounds before it next
// reads — must see the reset or broken pipe as a typed *PeerDownError, not
// an untyped socket error, while writes after its own Close stay
// ErrTransportClosed.
func TestWriteToCrashedPeer(t *testing.T) {
	baseline := runtime.NumGoroutine()
	trs := newMeshTuned(t, 2, nil)
	trs[1].Close()
	deadline := time.Now().Add(5 * time.Second)
	var err error
	for err == nil && time.Now().Before(deadline) {
		if err = trs[0].Send(1, frameRound, make([]byte, 1024)); err == nil {
			err = trs[0].FlushAll()
		}
		time.Sleep(time.Millisecond)
	}
	var pd *PeerDownError
	if !errors.As(err, &pd) || pd.Peer != 1 {
		t.Fatalf("got %v, want *PeerDownError for peer 1", err)
	}
	trs[0].Close()
	if err := trs[0].Send(1, frameRound, nil); !errors.Is(err, ErrTransportClosed) {
		t.Fatalf("send after Close: got %v, want ErrTransportClosed", err)
	}
	checkNoLeaks(t, baseline)
}
