package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"mdegst/internal/graph"
)

// Property and fuzz coverage for the calendar wheel's bucket-boundary
// arithmetic. The adversarial delays are the exact edges of the bucket
// geometry: the maximal legal delay 1.0 (lands exactly wheelSpan buckets
// ahead), the minimal positive float64 above zero (same-bucket insertion
// into the undrained tail), and delays sitting exactly on (or one ulp off)
// a bucket edge k/wheelSpan, where floor(t·wheelSpan) flips. Every schedule
// must drain in exact (time, sequence) order with consistent size and
// occupancy bookkeeping.

// boundaryDelays are the adversarial delay values in (0, 1].
func boundaryDelays() []float64 {
	ulp := math.Nextafter(0, 1) // smallest positive delay
	ds := []float64{1, ulp, 1 - 1e-16}
	for _, k := range []int{1, 2, 3, wheelSpan / 2, wheelSpan - 1} {
		edge := float64(k) / wheelSpan
		ds = append(ds, edge, math.Nextafter(edge, 0), math.Nextafter(edge, 1))
	}
	return ds
}

// checkWheelInvariants asserts the bookkeeping the pop path relies on:
// size equals the events actually stored, and every non-current occupied
// ring slot has its occupancy bit set and vice versa (the current slot may
// transiently keep its bit while fully drained, until the next rotation).
func checkWheelInvariants(t *testing.T, q *bucketQueue) {
	t.Helper()
	stored := 0
	curSlot := q.cur & wheelMask
	for slot := int64(0); slot < wheelRing; slot++ {
		n := len(q.buckets[slot])
		if slot == curSlot {
			n -= q.pos
		}
		stored += n
		bit := q.occupied[slot>>6]&(1<<(slot&63)) != 0
		if slot == curSlot {
			continue
		}
		if bit != (n > 0) {
			t.Fatalf("occupancy bit for slot %d is %v with %d events", slot, bit, n)
		}
	}
	if stored != q.size {
		t.Fatalf("size %d but %d events stored", q.size, stored)
	}
}

// drainSorted pops everything, asserting exact (time, sequence) order and
// clean end-state bookkeeping.
func drainSorted(t *testing.T, q *bucketQueue, want int) {
	t.Helper()
	var last event
	for i := 0; i < want; i++ {
		if q.empty() {
			t.Fatalf("queue empty after %d of %d pops", i, want)
		}
		e := q.pop()
		if i > 0 && e.before(last) {
			t.Fatalf("pop %d out of order: (%v, %d) after (%v, %d)", i, e.t, e.seq, last.t, last.seq)
		}
		last = e
		checkWheelInvariants(t, q)
	}
	if !q.empty() || q.size != 0 {
		t.Fatalf("queue not empty after draining: size %d", q.size)
	}
}

// TestWheelBucketBoundaries schedules cascades whose delays are exactly the
// bucket-edge values: each popped event reschedules follow-ups at every
// boundary delay, so same-bucket tail inserts, exact-edge lands and
// maximal-delay wraps all occur from a moving "now".
func TestWheelBucketBoundaries(t *testing.T) {
	delays := boundaryDelays()
	var q bucketQueue
	seq := int64(0)
	push := func(now, d float64) {
		seq++
		q.push(event{t: now + d, seq: seq})
	}
	for _, d := range delays {
		push(0, d)
	}
	checkWheelInvariants(t, &q)
	popped := 0
	var last event
	for !q.empty() {
		e := q.pop()
		if popped > 0 && e.before(last) {
			t.Fatalf("pop %d out of order: (%v, %d) after (%v, %d)", popped, e.t, e.seq, last.t, last.seq)
		}
		last = e
		popped++
		checkWheelInvariants(t, &q)
		// Cascade two generations deep so edges compound with edges.
		if e.seq <= int64(2*len(delays)) {
			for _, d := range delays {
				push(e.t, d)
			}
		}
	}
	if q.size != 0 {
		t.Fatalf("size %d after drain", q.size)
	}
	// The wheel must be reusable after reset. Fresh pushes are relative to
	// time zero again — the engine contract keeps every push within one
	// unit of the event being processed, which reset rewinds to 0.
	q.reset()
	for _, d := range delays {
		push(0, d)
	}
	drainSorted(t, &q, len(delays))
}

// TestWheelResetUnpins pins reset's cleanup contract: a part-drained wheel
// returns to its initial state with no events stored and a clean bitmap.
func TestWheelResetUnpins(t *testing.T) {
	var q bucketQueue
	for i := 0; i < 100; i++ {
		q.push(event{t: float64(i%7)/wheelSpan + 0.001, seq: int64(i)})
	}
	for i := 0; i < 40; i++ {
		q.pop()
	}
	q.reset()
	if q.size != 0 || q.pos != 0 || q.cur != 0 {
		t.Fatalf("reset left size=%d pos=%d cur=%d", q.size, q.pos, q.cur)
	}
	for slot := range q.buckets {
		if len(q.buckets[slot]) != 0 {
			t.Fatalf("reset left %d events in slot %d", len(q.buckets[slot]), slot)
		}
	}
	for w, word := range q.occupied {
		if word != 0 {
			t.Fatalf("reset left occupancy word %d = %x", w, word)
		}
	}
	checkWheelInvariants(t, &q)
}

// TestWheelBoundaryDelaysEngine runs the boundary delays through the full
// engine differentially: a DelayFn cycling the adversarial values must
// produce the identical delivery schedule on the calendar wheel and on
// ReferenceEngine's binary heap.
func TestWheelBoundaryDelaysEngine(t *testing.T) {
	delays := boundaryDelays()
	mkDelay := func() DelayFn {
		i := 0
		return func(*rand.Rand, NodeID, NodeID) float64 {
			d := delays[i%len(delays)]
			i++
			return d
		}
	}
	g := graph.Gnm(32, 128, 7)
	fast := &EventEngine{Delay: mkDelay(), FIFO: true}
	ref := &ReferenceEngine{Delay: mkDelay(), FIFO: true}
	fp, frep, err := fast.Run(g.Compile(), tokenFactory(60))
	if err != nil {
		t.Fatal(err)
	}
	rp, rrep, err := ref.Run(g.Compile(), tokenFactory(60))
	if err != nil {
		t.Fatal(err)
	}
	assertReportsEqual(t, "boundary delays", frep, rrep)
	for v, p := range fp {
		if p.(*tokenNode).seen != rp[v].(*tokenNode).seen {
			t.Errorf("node %d diverged under boundary delays", v)
		}
	}
}

// FuzzWheelBoundaries drives the wheel with fuzzer-chosen interleavings of
// pushes (delays drawn from the boundary set plus raw fuzzed fractions)
// and pops, checking every pop against a sorted reference of everything
// pushed and the bookkeeping invariants after each operation.
func FuzzWheelBoundaries(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xff, 3, 4, 0x80, 5})
	f.Add([]byte{0xff, 0xff, 0xff})
	f.Add([]byte{7, 7, 7, 0x90, 7, 7, 0x90, 0x90})
	f.Add([]byte{1, 0x88, 2, 0x88, 3, 0x88})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		delays := boundaryDelays()
		var q bucketQueue
		var pushed []event
		var seq int64
		now := 0.0 // time of the last pop; new delays are relative to it
		drained := 0
		var last event
		for _, op := range ops {
			if op&0x80 != 0 && !q.empty() {
				// Pop.
				e := q.pop()
				if drained > 0 && e.before(last) {
					t.Fatalf("pop out of order: (%v, %d) after (%v, %d)", e.t, e.seq, last.t, last.seq)
				}
				last = e
				now = e.t
				drained++
			} else {
				// Push with a delay from the boundary set, or a raw
				// fraction derived from the byte (always in (0, 1]).
				var d float64
				if int(op&0x3f) < len(delays) {
					d = delays[op&0x3f]
				} else {
					d = float64(op&0x3f+1) / 64
				}
				seq++
				ev := event{t: now + d, seq: seq}
				q.push(ev)
				pushed = append(pushed, ev)
			}
			checkWheelInvariants(t, &q)
		}
		// Drain the remainder and check the complete pop sequence equals
		// the sorted reference of everything pushed.
		var got []event
		for !q.empty() {
			e := q.pop()
			if drained+len(got) > 0 && e.before(last) {
				t.Fatalf("drain out of order: (%v, %d) after (%v, %d)", e.t, e.seq, last.t, last.seq)
			}
			last = e
			got = append(got, e)
		}
		if drained+len(got) != len(pushed) {
			t.Fatalf("pushed %d events, popped %d", len(pushed), drained+len(got))
		}
		sort.Slice(pushed, func(i, j int) bool { return pushed[i].before(pushed[j]) })
		for i, e := range got {
			want := pushed[drained+i]
			if e.t != want.t || e.seq != want.seq {
				t.Fatalf("drain event %d: got (%v, %d), want (%v, %d)", i, e.t, e.seq, want.t, want.seq)
			}
		}
	})
}
