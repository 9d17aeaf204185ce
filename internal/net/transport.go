package net

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	gonet "net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport is a full mesh of length-framed TCP connections between the K
// processes of one deployment. Each pair of processes shares exactly one
// multiplexed connection (the lower-id side accepts, the higher-id side
// dials), writes are coalesced in per-peer buffers until an explicit
// flush — the engine writes a whole barrier's frames, then flushes once —
// and a reader goroutine per peer delivers incoming frames in order
// through a bounded inbox, so a slow consumer exerts TCP backpressure
// instead of growing memory.
//
// Send, Flush and Recv must be called from one goroutine (the engine's);
// Close is safe from any goroutine, idempotent, and unblocks pending
// Recvs and reader goroutines — shutdown leaks nothing, which the
// transport's goroutine-accounting tests pin under -race.
type Transport struct {
	self  int
	addrs []string
	fp    Fingerprint
	table *WireTable
	ln    gonet.Listener
	peers []*peerConn // indexed by process id; nil at self

	// Heartbeat, when > 0, emits a liveness beacon to every peer at this
	// interval once the mesh is established. Each beacon carries the
	// sender's data-frame count for that peer, so the receiver can tell a
	// quiet-but-alive peer from a link that lost frames. Set before
	// Establish; off by default.
	Heartbeat time.Duration
	// Liveness, when > 0, bounds how long Recv blocks without evidence the
	// peer is healthy: total silence for Liveness, or heartbeats claiming
	// more frames than arrived while Recv starved for Liveness, yields a
	// *PeerDownError instead of hanging. Set before Establish; off by
	// default. Deployments pair it with Heartbeat: a process idle in a
	// peer's solo stretch (DESIGN.md §13) legitimately hears no data frame
	// for the whole stretch, so silence-only detection — Liveness without
	// Heartbeat — is for transport tests.
	Liveness time.Duration
	// Faults, when non-nil, arms deterministic send-side fault injection
	// (chaos tests only). Set before Establish; nil by default.
	Faults *FaultPlan

	done      chan struct{}
	closeOnce sync.Once
	readers   sync.WaitGroup
	hbeats    sync.WaitGroup
}

// ErrTransportClosed reports an operation on a transport whose Close has
// begun.
var ErrTransportClosed = errors.New("net: transport closed")

// inboxDepth bounds buffered incoming frames per peer. The barrier
// protocol keeps at most one round in flight, so the bound is never the
// limiter in healthy runs; it exists so a wedged consumer degrades into
// TCP backpressure.
const inboxDepth = 128

// ringSlots bounds the per-peer payload buffers backing the inbox: one per
// buffered frame, plus one for the frame a Recv may still hold (payloads
// are valid until the next Recv from the peer) and one for the frame the
// reader is filling. Frame w lives in slot w%ringSlots, and the reader
// fills that slot only once the consumer has completed Recv number
// w-ringSlots+2, so a live payload is never scribbled over.
const ringSlots = inboxDepth + 2

type frame struct {
	typ     byte
	payload []byte
}

type peerConn struct {
	conn gonet.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	in   chan frame
	mu   sync.Mutex
	err  error
	live *time.Ticker // lazily built liveness ticker (under mu); stopped in Close

	// slots is the reader's payload ring and free holds the buffers it
	// reclaimed from released slots (both reader goroutine only); recvRet
	// counts completed Recvs, releasing slots, with released as the cap-1
	// wakeup the reader waits on when the ring is momentarily full.
	slots    [ringSlots][]byte
	free     [][]byte
	recvRet  atomic.Int64
	released chan struct{}

	// wmu serialises the engine's buffered writes with heartbeat writes;
	// uncontended when heartbeats are off. whdr is the frame-header
	// scratch shared by every write under it.
	wmu  sync.Mutex
	whdr [frameHeaderSize + 1]byte
	// faultSeq numbers outgoing data frames for the fault plan (engine
	// goroutine only).
	faultSeq int64

	sent     atomic.Int64 // data frames sent (the heartbeat claim)
	recvData atomic.Int64 // data frames received
	claim    atomic.Int64 // peer's latest claimed sent count
	lastRecv atomic.Int64 // unix nanos of the last frame of any type
}

// release records one completed Recv and wakes the reader if it is
// waiting on a ring slot.
func (p *peerConn) release() {
	p.recvRet.Add(1)
	select {
	case p.released <- struct{}{}:
	default:
	}
}

func (p *peerConn) setErr(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *peerConn) getErr() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err == nil {
		return ErrTransportClosed
	}
	return p.err
}

// NewTransport wraps a bound listener as process self of the cluster
// described by addrs (addrs[self] is this process's own address) and the
// shared fingerprint. Establish must be called before any frame I/O.
func NewTransport(ln gonet.Listener, self int, addrs []string, fp Fingerprint) *Transport {
	return &Transport{
		self:  self,
		addrs: addrs,
		fp:    fp,
		table: CanonicalTable(),
		ln:    ln,
		peers: make([]*peerConn, len(addrs)),
		done:  make(chan struct{}),
	}
}

// Listen binds a TCP listener for NewTransport.
func Listen(addr string) (gonet.Listener, error) { return gonet.Listen("tcp", addr) }

// Self returns this process's id.
func (t *Transport) Self() int { return t.self }

// Procs returns the cluster's process count.
func (t *Transport) Procs() int { return len(t.addrs) }

// Table returns the canonical wire table the handshake agreed on.
func (t *Transport) Table() *WireTable { return t.table }

// Establish builds the full mesh: this process dials every lower id and
// accepts from every higher id, exchanging and verifying hello frames on
// each connection, all within the timeout. On success the per-peer reader
// goroutines are running and the listener is closed (the mesh is static);
// on failure everything opened so far is torn down.
func (t *Transport) Establish(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	if err := t.establish(deadline); err != nil {
		t.Close()
		return err
	}
	// The mesh is complete and static; no more accepts can arrive.
	if t.ln != nil {
		t.ln.Close()
	}
	now := time.Now().UnixNano()
	for id, p := range t.peers {
		if p == nil {
			continue
		}
		p.conn.SetDeadline(time.Time{})
		p.lastRecv.Store(now)
		t.readers.Add(1)
		go t.readLoop(id, p)
		if t.Heartbeat > 0 {
			t.hbeats.Add(1)
			go t.heartbeatLoop(p)
		}
	}
	return nil
}

func (t *Transport) establish(deadline time.Time) error {
	// Dial the lower ids. TCP listen backlogs decouple the processes'
	// startup order: a dial succeeds as soon as the peer is bound, even
	// before it calls Accept, so sequential dialing cannot deadlock.
	for q := 0; q < t.self; q++ {
		conn, err := t.dialRetry(t.addrs[q], deadline)
		if err != nil {
			return fmt.Errorf("net: dialing process %d at %s: %w", q, t.addrs[q], err)
		}
		conn.SetDeadline(deadline)
		if err := writeFrame(conn, frameHello, appendHello(nil, t.self, t.fp, t.table)); err != nil {
			conn.Close()
			return fmt.Errorf("net: hello to process %d: %w", q, err)
		}
		h, err := t.readHello(conn)
		if err != nil {
			conn.Close()
			return fmt.Errorf("net: hello from process %d: %w", q, err)
		}
		if h.self != q {
			conn.Close()
			return &HandshakeError{Reason: fmt.Sprintf("dialed process %d but peer identifies as %d", q, h.self)}
		}
		t.register(q, conn)
	}
	// Accept the higher ids, in whatever order they arrive.
	if need := len(t.addrs) - 1 - t.self; need > 0 {
		if t.ln == nil {
			return fmt.Errorf("net: process %d needs a listener to accept %d peers", t.self, need)
		}
		if d, ok := t.ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		for got := 0; got < need; {
			conn, err := t.ln.Accept()
			if err != nil {
				return fmt.Errorf("net: accepting peers (%d of %d connected): %w", got, need, err)
			}
			conn.SetDeadline(deadline)
			h, err := t.readHello(conn)
			if err != nil {
				conn.Close()
				return err
			}
			if h.self <= t.self || h.self >= len(t.addrs) || t.peers[h.self] != nil {
				conn.Close()
				return &HandshakeError{Reason: fmt.Sprintf("unexpected hello from process %d at process %d", h.self, t.self)}
			}
			if err := writeFrame(conn, frameHello, appendHello(nil, t.self, t.fp, t.table)); err != nil {
				conn.Close()
				return fmt.Errorf("net: hello to process %d: %w", h.self, err)
			}
			t.register(h.self, conn)
			got++
		}
	}
	return nil
}

func (t *Transport) readHello(conn gonet.Conn) (*hello, error) {
	typ, payload, err := readFrame(conn)
	if err != nil {
		return nil, &HandshakeError{Reason: fmt.Sprintf("reading hello: %v", err)}
	}
	if typ != frameHello {
		return nil, &HandshakeError{Reason: fmt.Sprintf("first frame is type %d, want hello", typ)}
	}
	return parseHello(payload, t.fp, t.table)
}

func (t *Transport) register(id int, conn gonet.Conn) {
	t.peers[id] = &peerConn{
		conn:     conn,
		r:        bufio.NewReaderSize(conn, 1<<16),
		w:        bufio.NewWriterSize(conn, 1<<16),
		in:       make(chan frame, inboxDepth),
		released: make(chan struct{}, 1),
	}
}

// errDialRefused is an injected dial failure from the fault plan.
var errDialRefused = errors.New("net: dial refused (injected)")

// dialRetry dials addr until it succeeds or the overall deadline passes,
// with capped exponential backoff plus deterministic jitter between
// attempts. Every wait — including the dial's own timeout — is bounded by
// the remaining budget, so Establish never overshoots the caller's
// deadline no matter how many peers are slow.
func (t *Transport) dialRetry(addr string, deadline time.Time) (gonet.Conn, error) {
	backoff := 10 * time.Millisecond
	const maxBackoff = 500 * time.Millisecond
	var lastErr error
	for attempt := 0; ; attempt++ {
		remaining := time.Until(deadline)
		if remaining <= 0 {
			if lastErr == nil {
				lastErr = errors.New("deadline exceeded before first attempt")
			}
			return nil, fmt.Errorf("net: dial %s: deadline exceeded after %d attempts: %w", addr, attempt, lastErr)
		}
		if t.Faults != nil && t.Faults.refuseDial(attempt) {
			lastErr = errDialRefused
		} else {
			conn, err := gonet.DialTimeout("tcp", addr, remaining)
			if err == nil {
				return conn, nil
			}
			lastErr = err
		}
		// Jitter up to half the backoff, deterministic in (self, attempt) so
		// two processes dialing one listener desynchronise without shared
		// randomness.
		sleep := backoff + time.Duration(splitmix64(uint64(t.self)<<32|uint64(uint32(attempt)))%uint64(backoff/2+1))
		if backoff < maxBackoff {
			backoff *= 2
		}
		if rem := time.Until(deadline); sleep > rem {
			sleep = rem
		}
		if sleep > 0 {
			time.Sleep(sleep)
		}
	}
}

// readLoop delivers one peer's frames in order until the connection or the
// transport closes. A read failure (including the peer's clean EOF) is
// recorded as a *PeerDownError and the inbox closed so a pending Recv
// observes it; a transport close simply exits, leaving Recv to observe
// done. Heartbeat frames are consumed here — they feed the liveness
// detector and never reach the engine.
//
// Payloads live in the peer's slot ring: frame w is read into slot
// w%ringSlots once the consumer's completed-Recv count shows the slot's
// previous occupant can no longer be referenced. Buffers move rather than
// stay put: the reader reclaims every released slot's buffer onto its
// free list and hands a free buffer to the slot it fills next, so the
// buffers in use track the frames in flight, not the frames ever read. A
// connection carrying fewer than ringSlots frames per run therefore
// recycles the same warm buffers instead of first-filling fresh slots,
// and in steady state no per-frame buffers are allocated. A reader
// stalled on a slot implies at least inboxDepth undelivered frames, so
// the consumer's next Recv both succeeds and releases it — the wait
// cannot deadlock. Heartbeats reuse the current slot in place without
// advancing the ring.
func (t *Transport) readLoop(id int, p *peerConn) {
	defer t.readers.Done()
	var w, lo int64 // data frames read into the ring; frames reclaimed from it
	for {
		for {
			for lo < w && p.recvRet.Load() >= lo+2 {
				slot := &p.slots[lo%ringSlots]
				p.free = append(p.free, *slot)
				*slot = nil
				lo++
			}
			if w-lo < ringSlots {
				break
			}
			select {
			case <-p.released:
			case <-t.done:
				return
			}
		}
		slot := &p.slots[w%ringSlots]
		if *slot == nil && len(p.free) > 0 {
			*slot = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
		}
		typ, payload, err := readFrameReuse(p.r, slot)
		if err != nil {
			if err == io.EOF {
				err = fmt.Errorf("net: process %d closed the connection", id)
			}
			p.setErr(&PeerDownError{Peer: id, Barrier: -1, Cause: err})
			close(p.in)
			return
		}
		p.lastRecv.Store(time.Now().UnixNano())
		if typ == frameHeart {
			r := frameCursor(typ, payload)
			if claim := r.Uvarint(); r.Err() == nil && int64(claim) > p.claim.Load() {
				p.claim.Store(int64(claim))
			}
			continue
		}
		w++
		p.recvData.Add(1)
		select {
		case p.in <- frame{typ: typ, payload: payload}:
		case <-t.done:
			p.setErr(ErrTransportClosed)
			return
		}
	}
}

// heartbeatLoop emits liveness beacons to one peer until the transport
// closes or the connection dies (the readLoop owns surfacing that). The
// claim is read and the beacon written under the peer's write mutex, so a
// beacon never claims a frame that is not already ahead of it in the
// stream.
func (t *Transport) heartbeatLoop(p *peerConn) {
	defer t.hbeats.Done()
	tick := time.NewTicker(t.Heartbeat)
	defer tick.Stop()
	var body []byte
	for {
		select {
		case <-t.done:
			return
		case <-tick.C:
			p.wmu.Lock()
			body = appendUvarint(body[:0], uint64(p.sent.Load()))
			err := writeFrameScratch(p.w, &p.whdr, frameHeart, body)
			if err == nil {
				err = p.w.Flush()
			}
			p.wmu.Unlock()
			if err != nil {
				return
			}
		}
	}
}

// Send coalesces one frame into the peer's write buffer. Nothing reaches
// the socket until Flush (or the buffer fills). With a FaultPlan armed the
// frame may be dropped, duplicated, truncated, delayed, or take the
// connection down — deterministically in the plan's seed.
func (t *Transport) Send(peer int, typ byte, body []byte) error {
	p := t.peers[peer]
	if p == nil {
		return fmt.Errorf("net: no connection to process %d", peer)
	}
	select {
	case <-t.done:
		return ErrTransportClosed
	default:
	}
	if f := t.Faults; f != nil && typ != frameHello {
		p.faultSeq++
		switch f.frameAction(t.self, peer, p.faultSeq) {
		case faultDrop:
			// The frame vanishes but the claim advances: that gap is exactly
			// what the receiver's liveness detector looks for.
			p.wmu.Lock()
			p.sent.Add(1)
			p.wmu.Unlock()
			return nil
		case faultDup:
			p.wmu.Lock()
			err := writeFrameScratch(p.w, &p.whdr, typ, body)
			if err == nil {
				err = writeFrameScratch(p.w, &p.whdr, typ, body)
			}
			p.sent.Add(1)
			p.wmu.Unlock()
			return t.writeFailed(peer, err)
		case faultTrunc:
			// A frame cut mid-payload: write the header and half the bytes,
			// then kill the connection — the receiver sees a truncated-
			// payload FrameError, never a silent parse of garbage.
			p.wmu.Lock()
			cut := appendFrame(nil, typ, body)
			p.conn.Write(cut[:frameHeaderSize+1+len(body)/2])
			p.conn.Close()
			p.wmu.Unlock()
			return nil
		case faultDelay:
			time.Sleep(f.delayFor(t.self, peer, p.faultSeq))
		case faultKill:
			p.wmu.Lock()
			p.conn.Close()
			p.wmu.Unlock()
			return nil
		}
	}
	p.wmu.Lock()
	err := writeFrameScratch(p.w, &p.whdr, typ, body)
	if err == nil {
		p.sent.Add(1)
	}
	p.wmu.Unlock()
	return t.writeFailed(peer, err)
}

// writeFailed types a failed write on peer's connection — the reset or
// broken pipe a crashed process leaves behind — as *PeerDownError, unless
// the frame itself was rejected or this transport is closing. Writes can
// see the crash first: a solo round's lone process may send to a peer
// several times before it next reads from it.
func (t *Transport) writeFailed(peer int, err error) error {
	if err == nil {
		return nil
	}
	if fe := (*FrameError)(nil); errors.As(err, &fe) {
		return err
	}
	select {
	case <-t.done:
		return ErrTransportClosed
	default:
	}
	return &PeerDownError{Peer: peer, Barrier: -1, Cause: fmt.Errorf("writing: %w", err)}
}

// Flush pushes the peer's coalesced frames to the socket.
func (t *Transport) Flush(peer int) error {
	p := t.peers[peer]
	if p == nil {
		return fmt.Errorf("net: no connection to process %d", peer)
	}
	p.wmu.Lock()
	err := p.w.Flush()
	p.wmu.Unlock()
	return t.writeFailed(peer, err)
}

// FlushAll flushes every peer buffer — the end of a barrier's write phase.
func (t *Transport) FlushAll() error {
	for id, p := range t.peers {
		if p == nil {
			continue
		}
		p.wmu.Lock()
		err := p.w.Flush()
		p.wmu.Unlock()
		if err != nil {
			return t.writeFailed(id, err)
		}
	}
	return nil
}

// Recv returns the next frame from the peer, blocking until one arrives,
// the peer's connection fails, or the transport closes. With Liveness set
// the block is bounded: a peer silent for the whole window, or one whose
// heartbeats claim frames that never arrived while Recv starved, yields a
// *PeerDownError instead of a hang.
//
// The payload aliases a reusable transport buffer and is valid only until
// the next Recv from the same peer — consumers decode or copy before
// asking for the peer's next frame (the engine's streaming decode does).
func (t *Transport) Recv(peer int) (byte, []byte, error) {
	p := t.peers[peer]
	if p == nil {
		return 0, nil, fmt.Errorf("net: no connection to process %d", peer)
	}
	var timeout <-chan time.Time
	var start time.Time
	if t.Liveness > 0 {
		start = time.Now()
		// The ticker persists across Recvs (built lazily, stopped in Close)
		// so the steady-state round loop never allocates one. A stale tick
		// pending from a previous Recv only triggers a harmless re-check.
		p.mu.Lock()
		if p.live == nil {
			granularity := t.Liveness / 4
			if granularity < time.Millisecond {
				granularity = time.Millisecond
			}
			p.live = time.NewTicker(granularity)
		}
		timeout = p.live.C
		p.mu.Unlock()
	}
	for {
		select {
		case f, ok := <-p.in:
			if !ok {
				return 0, nil, p.getErr()
			}
			p.release()
			return f.typ, f.payload, nil
		case <-t.done:
			// Prefer a frame that raced the close: drain without blocking.
			select {
			case f, ok := <-p.in:
				if ok {
					p.release()
					return f.typ, f.payload, nil
				}
				return 0, nil, p.getErr()
			default:
				return 0, nil, ErrTransportClosed
			}
		case <-timeout:
			silent := time.Since(time.Unix(0, p.lastRecv.Load()))
			if silent >= t.Liveness {
				return 0, nil, &PeerDownError{Peer: peer, Barrier: -1,
					Cause: fmt.Errorf("no frames or heartbeats for %v (liveness %v)", silent.Round(time.Millisecond), t.Liveness)}
			}
			if claim, got := p.claim.Load(), p.recvData.Load(); time.Since(start) >= t.Liveness && claim > got {
				return 0, nil, &PeerDownError{Peer: peer, Barrier: -1,
					Cause: fmt.Errorf("peer claims %d frames sent, %d arrived after %v (liveness %v)", claim, got, time.Since(start).Round(time.Millisecond), t.Liveness)}
			}
		}
	}
}

// Close tears the mesh down: flushes nothing (callers flush at barriers),
// closes every connection and the listener, and waits for the reader
// goroutines to exit. Idempotent and safe from any goroutine; double
// Close is a no-op.
func (t *Transport) Close() error {
	t.closeOnce.Do(func() {
		close(t.done)
		if t.ln != nil {
			t.ln.Close()
		}
		for _, p := range t.peers {
			if p != nil {
				p.conn.Close()
				p.mu.Lock()
				if p.live != nil {
					p.live.Stop()
				}
				p.mu.Unlock()
			}
		}
		t.readers.Wait()
		t.hbeats.Wait()
	})
	return nil
}
