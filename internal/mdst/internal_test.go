package mdst

import (
	"testing"
	"testing/quick"

	"mdegst/internal/sim"
)

// White-box tests of the protocol's pure pieces: the SearchDegree aggregate,
// the edge-report total order and the fragment-identity order. These are the
// three places where determinism and delivery-order independence are decided.

func TestMergeAggLattice(t *testing.T) {
	cases := []struct {
		a, b, want degAgg
	}{
		{degAgg{5, 3}, degAgg{4, 1}, degAgg{5, 3}},           // higher degree wins
		{degAgg{4, 1}, degAgg{5, 3}, degAgg{5, 3}},           // commutes
		{degAgg{5, 7}, degAgg{5, 3}, degAgg{5, 3}},           // same degree: min id
		{degAgg{5, noCand}, degAgg{5, 3}, degAgg{5, 3}},      // candidate beats none
		{degAgg{5, 3}, degAgg{5, noCand}, degAgg{5, 3}},      // either side
		{degAgg{5, noCand}, degAgg{4, 2}, degAgg{5, noCand}}, // degree still dominates
		{degAgg{3, noCand}, degAgg{3, noCand}, degAgg{3, noCand}},
	}
	for _, tc := range cases {
		if got := mergeAgg(tc.a, tc.b); got != tc.want {
			t.Errorf("merge(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// Property: mergeAgg is commutative and associative — the requirement for
// the convergecast to be delivery-order independent.
func TestQuickMergeAggAlgebra(t *testing.T) {
	gen := func(k uint8, cand int16) degAgg {
		c := noCand
		if cand >= 0 {
			c = sim.NodeID(cand)
		}
		return degAgg{k: int(k % 16), cand: c}
	}
	f := func(k1, k2, k3 uint8, c1, c2, c3 int16) bool {
		a, b, c := gen(k1, c1), gen(k2, c2), gen(k3, c3)
		if mergeAgg(a, b) != mergeAgg(b, a) {
			return false
		}
		return mergeAgg(mergeAgg(a, b), c) == mergeAgg(a, mergeAgg(b, c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEdgeReportOrder(t *testing.T) {
	low := edgeReport{u: 1, v: 2, du: 2, dv: 2}
	highDeg := edgeReport{u: 1, v: 2, du: 2, dv: 5}
	if !low.better(highDeg) {
		t.Error("smaller max endpoint degree must win (the paper's Choose rule)")
	}
	tieSmallerIDs := edgeReport{u: 0, v: 9, du: 2, dv: 2}
	if !tieSmallerIDs.better(low) {
		t.Error("equal degrees: smaller min endpoint id must win")
	}
	if low.better(low) {
		t.Error("irreflexive")
	}
	// Symmetric endpoints must not affect the key.
	a := edgeReport{u: 3, v: 7, du: 4, dv: 2}
	b := edgeReport{u: 7, v: 3, du: 2, dv: 4}
	if a.key() != b.key() {
		t.Error("key must be endpoint-order invariant")
	}
}

// Property: better is a strict total order on distinct keys.
func TestQuickEdgeReportTotalOrder(t *testing.T) {
	gen := func(u, v uint8, du, dv uint8) edgeReport {
		return edgeReport{u: sim.NodeID(u), v: sim.NodeID(v) + 256, du: int(du % 8), dv: int(dv % 8)}
	}
	f := func(x1, x2, x3, x4, y1, y2, y3, y4 uint8) bool {
		a, b := gen(x1, x2, x3, x4), gen(y1, y2, y3, y4)
		if a.key() == b.key() {
			return !a.better(b) && !b.better(a)
		}
		return a.better(b) != b.better(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFragIDOrderOwnerMajor(t *testing.T) {
	// The paper's "(r,r') < (p,p')" comparison: owner id dominates.
	a := fragID{owner: 1, root: 9}
	b := fragID{owner: 2, root: 0}
	if !a.less(b) || b.less(a) {
		t.Error("owner must dominate the comparison")
	}
	c := fragID{owner: 1, root: 3}
	if !c.less(a) || a.less(c) {
		t.Error("equal owners: fragment root decides")
	}
	if a.less(a) {
		t.Error("irreflexive")
	}
}

func TestModeStrings(t *testing.T) {
	if Single.String() != "single" || Multi.String() != "multi" || Hybrid.String() != "hybrid" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "Mode(42)" {
		t.Errorf("unknown mode renders %q", Mode(42).String())
	}
	if Single.initialPhase() != Single || Multi.initialPhase() != Multi || Hybrid.initialPhase() != Multi {
		t.Error("initial phases wrong")
	}
}

func TestStopDegree(t *testing.T) {
	n := &Node{}
	if n.stopDegree() != 2 {
		t.Errorf("default stop = %d", n.stopDegree())
	}
	n.target = 1
	if n.stopDegree() != 2 {
		t.Error("targets below 2 behave as unbounded")
	}
	n.target = 7
	if n.stopDegree() != 7 {
		t.Errorf("stop = %d, want 7", n.stopDegree())
	}
}

func TestChildListMaintenance(t *testing.T) {
	n := &Node{}
	for _, c := range []sim.NodeID{5, 1, 9, 3} {
		n.addChild(c, 10*int(c))
	}
	want := []sim.NodeID{1, 3, 5, 9}
	for i, c := range n.children {
		if c != want[i] || n.sizes[i] != 10*int(c) {
			t.Fatalf("children %v sizes %v, want %v with ten times their ids", n.children, n.sizes, want)
		}
	}
	if got := n.removeChild(5); got != 50 {
		t.Fatalf("removed child's size %d, want 50", got)
	}
	if len(n.children) != 3 || n.children[2] != 9 || len(n.sizes) != 3 || n.sizes[2] != 90 {
		t.Fatalf("after remove: %v %v", n.children, n.sizes)
	}
	defer func() {
		if recover() == nil {
			t.Error("removing a missing child must panic (protocol invariant)")
		}
	}()
	n.removeChild(42)
}

func TestMessageWords(t *testing.T) {
	// The bit-complexity accounting depends on these sizes; pin the encoded
	// records (kind tag + payload words, derived by WireMsg.Words).
	cases := []struct {
		m    sim.WireMsg
		want int
	}{
		{newStart(mStart{round: 1, cut: noCand, owner: noCand, phase: Single, moved: 7}), 5},
		{newDeg(1, 3, 2, true), 5},
		{newMove(1, 3, 2, 16), 5},
		{newCut(1, 3, 2, 5), 5},
		{newBFS(1, 3, 2, 4), 5},
		{newCousin(1, 3, 2, 4), 5},
		{newCutRoot(1, 5), 3},
		{newBFSBack(1, true, true, 3, noLo, noLabel, nil, nil), 6},
		{newBFSBack(1, true, false, 3, noLo, noLabel, &edgeReport{u: 1, v: 2, du: 3, dv: 4, vroot: 5}, nil), 7},
		{newBFSBack(1, false, false, 3, noLo, noLabel, nil, &degAgg{k: 4, cand: 9}), 8},
		{newBFSBack(1, false, false, 3, noLo, noLabel, &edgeReport{u: 1, v: 2, du: 3, dv: 4, vroot: 5}, &degAgg{k: 4, cand: 9}), 9},
		{newUpdate(1, true, true, 6, nil), 3},
		{newUpdate(1, false, false, 6, &degAgg{k: 4, cand: noCand}), 5},
		{newClaim(1, 2, 3, updQuery|updUWon), 5},
		{newRelease(1), 3},
		{newChild(1, true, 6, nil), 3},
		{newChild(1, false, 6, &degAgg{k: 4, cand: 9}), 5},
		{newRoundDone(1, true, 6, nil), 3},
		{newRoundDone(1, false, 6, &degAgg{k: 4, cand: 9}), 5},
		{newAnswer(1, false), 3},
		{newReleased(1, true), 3},
		{newTerm(1), 2},
	}
	for _, tc := range cases {
		if got := tc.m.Words(); got != tc.want {
			t.Errorf("%s words = %d, want %d", tc.m.Kind(), got, tc.want)
		}
		if err := tc.m.Validate(); err != nil {
			t.Errorf("%s: %v", tc.m.Kind(), err)
		}
	}
}

func ptr(m sim.WireMsg) *sim.WireMsg { return &m }

// The hot records are only ever written into a send slot (put*); these
// build them as values for the tests.

func newStart(s mStart) (m sim.WireMsg) {
	putStart(&m, &s)
	return m
}

func newDeg(round, k int, cand sim.NodeID, xBelow bool) (m sim.WireMsg) {
	putDeg(&m, round, k, cand, xBelow)
	return m
}

func newBFS(round, k int, word int64, fragRoot sim.NodeID) (m sim.WireMsg) {
	putBFS(&m, round, k, word, fragRoot)
	return m
}

func newCousin(round, deg int, owner, fragRoot sim.NodeID) (m sim.WireMsg) {
	putCousin(&m, round, deg, owner, fragRoot)
	return m
}

func newBFSBack(round int, improved, claimer bool, size, lo, hi int, report *edgeReport, search *degAgg) (m sim.WireMsg) {
	putBFSBack(&m, round, improved, claimer, size, lo, hi, report, search)
	return m
}

// TestMessageRoundTrip pins the decode layer against the constructors:
// every record decodes back to the field values it was built from.
func TestMessageRoundTrip(t *testing.T) {
	rep := edgeReport{u: 7, v: 9, du: 3, dv: 2, vroot: 11}
	for _, want := range []mStart{
		{round: 4, cut: 8, owner: 3, fell: true, phase: Single, moved: 12},
		{round: 4, cut: noCand, owner: noCand, phase: Multi},
	} {
		if got := decStart(ptr(newStart(want))); got != want {
			t.Errorf("start round-trip: %+v", got)
		}
	}
	if got := decDeg(ptr(newDeg(4, 6, noCand, true))); got != (mDeg{round: 4, k: 6, cand: noCand, xBelow: true}) {
		t.Errorf("deg round-trip: %+v", got)
	}
	if got := decMove(ptr(newMove(4, 6, 9, 40))); got != (mMove{round: 4, k: 6, target: 9, n: 40}) {
		t.Errorf("move round-trip: %+v", got)
	}
	if got := decCut(ptr(newCut(4, 6, 2, noLabel))); got != (mCut{round: 4, k: 6, owner: 2, label: noLabel, root: noCand}) {
		t.Errorf("cut round-trip: %+v", got)
	}
	if got := decCut(ptr(newCutRoot(4, 9))); got != (mCut{round: 4, root: 9}) {
		t.Errorf("short cut round-trip: %+v", got)
	}
	got := decBFS(ptr(newBFS(4, 6, 17, 3)))
	if got != (mBFS{round: 4, k: 6, word: 17, fragRoot: 3}) {
		t.Errorf("bfs round-trip: %+v", got)
	}
	if owner, label := got.fields(Multi); owner != 17 || label != noLabel {
		t.Errorf("bfs fields (Multi): owner %d, label %d", owner, label)
	}
	if owner, label := got.fields(Single); owner != singleOwner || label != 17 {
		t.Errorf("bfs fields (Single): owner %d, label %d", owner, label)
	}
	if got := decCousin(ptr(newCousin(4, 6, 2, 3))); got != (mCousin{round: 4, deg: 6, owner: 2, fragRoot: 3}) {
		t.Errorf("cousin round-trip: %+v", got)
	}
	// A Single round's bfsback and an exchange's cycle records may carry
	// a SearchDegree aggregate (DESIGN.md deviation 9), noCand included.
	aggs := []optAgg{{}, {degAgg{k: 5, cand: 12}, true}, {degAgg{k: 3, cand: noCand}, true}}
	for i, f := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		a := aggs[i%len(aggs)]
		long := mBFSBack{round: 4, hasReport: true, report: rep, improved: f[0], claimer: f[1], size: 6, lo: noLo, hi: noLabel, search: a}
		if got := decBFSBack(ptr(newBFSBack(4, f[0], f[1], 6, 0, 0, &rep, a.ptr()))); got != long {
			t.Errorf("bfsback long round-trip: %+v", got)
		}
		short := mBFSBack{round: 4, improved: f[0], claimer: f[1], size: 6, lo: 2, hi: 30, search: a}
		if got := decBFSBack(ptr(newBFSBack(4, f[0], f[1], 6, 2, 30, nil, a.ptr()))); got != short {
			t.Errorf("bfsback short round-trip: %+v", got)
		}
	}
	// A published degree may fall below zero (DESIGN.md deviation 8).
	pubs := []int{0, 5, -2}
	for i, f := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		pub := pubs[i%len(pubs)]
		a := aggs[i%len(aggs)]
		if got := decUpdate(ptr(newUpdate(4, f[0], f[1], pub, a.ptr()))); got != (mUpdate{round: 4, first: f[0], fell: f[1], pub: pub, cycle: a}) {
			t.Errorf("update round-trip: %+v", got)
		}
	}
	for _, q := range [][2]bool{{false, false}, {true, false}, {true, true}} {
		var flags int64
		if q[0] {
			flags |= updQuery
		}
		if q[1] {
			flags |= updUWon
		}
		want := mUpdate{round: 4, u: 7, v: 3, claim: true, query: q[0], uWon: q[1]}
		if got := decUpdate(ptr(newClaim(4, 7, 3, flags))); got != want {
			t.Errorf("claim round-trip: %+v", got)
		}
	}
	if got := decUpdate(ptr(newRelease(4))); got != (mUpdate{round: 4, release: true}) {
		t.Errorf("release round-trip: %+v", got)
	}
	for i, b := range []bool{false, true} {
		pub := pubs[i+1]
		a := aggs[i+1]
		if got := decChild(ptr(newChild(4, b, pub, a.ptr()))); got != (mChild{round: 4, fell: b, pub: pub, cycle: a}) {
			t.Errorf("child round-trip: %+v", got)
		}
		if got := decRoundDone(ptr(newRoundDone(4, b, pub, a.ptr()))); got != (mRoundDone{round: 4, fell: b, pub: pub, cycle: a}) {
			t.Errorf("rounddone round-trip: %+v", got)
		}
		if got := decRoundDone(ptr(newAnswer(4, b))); got != (mRoundDone{round: 4, answer: true, won: b}) {
			t.Errorf("answer round-trip: %+v", got)
		}
		if got := decRoundDone(ptr(newReleased(4, b))); got != (mRoundDone{round: 4, released: true, improved: b}) {
			t.Errorf("released round-trip: %+v", got)
		}
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{Single, Multi, Hybrid} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v; want %v", m.String(), got, err, m)
		}
	}
	for _, name := range []string{"", "Single", "quad", Mode(7).String()} {
		if _, err := ParseMode(name); err == nil {
			t.Errorf("ParseMode(%q) accepted an unknown mode", name)
		}
	}
}
