package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"
)

// Report aggregates the complexity measures of one protocol execution.
//
// Its per-(kind, round) and per-sender breakdowns have one form at a
// time. While an engine runs, they are the engine's dense accumulator
// (counters): one counter per (round, opcode) and one per sending node.
// Finalize converts them once into the sorted lists the checkpoint's
// counters block also carries, and from then on those lists are the
// breakdown: KindRounds and SentBy read them, and Add and MergeParallel
// merge them.
type Report struct {
	// Messages is the total number of messages delivered.
	Messages int64
	// ByKind counts delivered messages per message kind. Finalize fills it
	// from the (kind, round) list; Add and MergeParallel keep it current.
	ByKind map[string]int64
	// Words is the total message volume in O(log n)-bit words.
	Words int64
	// MaxWords is the size of the largest single message observed; the
	// paper claims every message fits in 4 identities.
	MaxWords int
	// CausalDepth is the length of the longest causal message chain — the
	// standard asynchronous time complexity (every delay at most one unit).
	CausalDepth int64
	// VirtualTime is the completion time of the discrete-event engine's
	// clock (equals CausalDepth under UnitDelay); zero for AsyncEngine.
	VirtualTime float64
	// Wall is the host wall-clock duration of the run.
	Wall time.Duration

	// The finalized breakdown: deliveries per (opcode, round) sorted by
	// opcode, then round, and sends per node sorted by node. Once set, a
	// list is never written in place, so reports may share one.
	kindRounds []KindRoundCount
	sentBy     []SentByCount
	// run is the engine's accumulator while the run counts; Finalize
	// converts it into the lists and drops it.
	run *counters
}

// maxRounds bounds the algorithm rounds a report counts: rounds lie in
// [0, maxRounds). WireMsg.Validate rejects records outside it.
const maxRounds = 1 << 16

// minRows is the slab's first allocation, in rounds.
const minRows = 64

// counters is an engine's dense accumulator behind a running report.
// c[round*w + op-base] counts the deliveries of one of the bound schema's
// w opcodes in one algorithm round, and every entry at or beyond hi is
// zero; sent[i] counts the messages dense node i sent. The slab binds to
// the wire schema of the first delivery it counts (a run executes one
// protocol). The round runner pools its accumulator and lends it to each
// run's report, so a warm engine counts without allocating.
type counters struct {
	c    []int64
	base Op  // first opcode of the bound schema
	w    int // opcodes in the bound schema; 0 while unbound
	hi   int
	sent []int64
	ids  []NodeID // dense index -> sender identity, ascending
}

// column returns op's column, binding an unbound slab to op's schema, or
// -1 when op lies outside the bound schema.
func (s *counters) column(op Op) int {
	if s.w == 0 {
		info := opInfo(op)
		if op == OpNone || info == nil {
			return -1
		}
		s.base, s.w = info.schema.base, len(info.schema.specs)
	}
	if col := int(op) - int(s.base); uint(col) < uint(s.w) {
		return col
	}
	return -1
}

// slot returns the index of column col in round, growing the slab, or -1
// when the round lies outside [0, maxRounds).
func (s *counters) slot(col int, round int64) int {
	if uint64(round) >= maxRounds {
		return -1
	}
	i := int(round)*s.w + col
	if i >= len(s.c) {
		s.grow(i)
	}
	if i >= s.hi {
		s.hi = i + 1
	}
	return i
}

// grow makes index i addressable, at least doubling the slab. Entries
// beyond hi stay zero: the copy carries them over and make zeroes the rest.
func (s *counters) grow(i int) {
	rows := max(2*len(s.c)/s.w, minRows)
	for rows*s.w <= i {
		rows *= 2
	}
	c := make([]int64, min(rows, maxRounds)*s.w)
	copy(c, s.c[:s.hi])
	s.c = c
}

// appendLists appends the nonzero counters to kr, in (opcode, round)
// order, and to sb, in node order.
func (s *counters) appendLists(kr []KindRoundCount, sb []SentByCount) ([]KindRoundCount, []SentByCount) {
	kr = slices.Grow(kr, nonzero(s.c[:s.hi]))
	for col := 0; col < s.w; col++ {
		for i := col; i < s.hi; i += s.w {
			if v := s.c[i]; v != 0 {
				kr = append(kr, KindRoundCount{Op: s.base + Op(col), Round: i / s.w, Count: v})
			}
		}
	}
	sb = slices.Grow(sb, nonzero(s.sent))
	for i, v := range s.sent {
		if v != 0 {
			sb = append(sb, SentByCount{Node: s.ids[i], Count: v})
		}
	}
	return kr, sb
}

// nonzero returns the number of nonzero counters in c.
func nonzero(c []int64) (n int) {
	for _, v := range c {
		if v != 0 {
			n++
		}
	}
	return n
}

// NewReport returns an empty report ready for Add.
func NewReport() *Report {
	return &Report{ByKind: make(map[string]int64)}
}

// newRunReport returns an empty report counting on s, which it resets to
// an unbound, zeroed slab for a run over nodes ids. Finalize detaches s
// again, so a finalized report never pins an engine's pooled memory.
func newRunReport(s *counters, ids []NodeID) *Report {
	clear(s.c[:s.hi])
	s.hi, s.w = 0, 0
	s.sent = growCap(s.sent, len(ids))
	clear(s.sent)
	s.ids = ids
	return &Report{ByKind: make(map[string]int64), run: s}
}

// countPlay accounts n deliveries made at causal depth depth: the counts
// a round runner takes once per played batch, not per delivery.
func (r *Report) countPlay(n int, depth int64) {
	r.Messages += int64(n)
	if n > 0 && depth > r.CausalDepth {
		r.CausalDepth = depth
	}
}

// countMsg accounts one delivered record sent by dense node from: its
// words, its (round, opcode) counter and its sender's counter;
// countPlay accounts the delivery itself. A record the slab cannot hold
// panics with a *WireError, which the engines return as the run's error.
func (r *Report) countMsg(from int32, m *WireMsg) {
	s := r.run
	col := int(m.Op) - int(s.base)
	if uint(col) >= uint(s.w) {
		if col = s.column(m.Op); col < 0 {
			panic(&WireError{Op: m.Op, Kind: opKind(m.Op), Reason: "opcode outside the run's wire schema"})
		}
	}
	var round int64
	if wireReg.infos[m.Op].rounded {
		round = m.W[0]
	}
	i := s.slot(col, round)
	if i < 0 {
		panic(&WireError{Op: m.Op, Kind: opKind(m.Op), Reason: fmt.Sprintf("round %d outside [0, %d)", round, maxRounds)})
	}
	s.c[i]++
	s.sent[from]++
	w := m.Words()
	r.Words += int64(w)
	if w > r.MaxWords {
		r.MaxWords = w
	}
}

// Finalize converts the engine's accumulator into the report's sorted
// lists and fills ByKind from them. Idempotent; engines call it once per
// run, and every accessor calls it.
func (r *Report) Finalize() {
	if r.run == nil {
		return
	}
	r.kindRounds, r.sentBy = r.run.appendLists(nil, nil)
	r.run = nil
	r.addByKind(r.kindRounds)
}

// addByKind adds the counts of kr, sorted by opcode, to ByKind.
func (r *Report) addByKind(kr []KindRoundCount) {
	for i := 0; i < len(kr); {
		op, sum := kr[i].Op, int64(0)
		for ; i < len(kr) && kr[i].Op == op; i++ {
			sum += kr[i].Count
		}
		r.ByKind[opKind(op)] += sum
	}
}

// merge adds o's counts and breakdown to r, finalizing r. o may still be
// running (DistEngine merges its runner's report at every commit): its
// lists are then read off its accumulator, which keeps counting.
func (r *Report) merge(o *Report) {
	r.Finalize()
	kr, sb := o.kindRounds, o.sentBy
	if o.run != nil {
		kr, sb = o.run.appendLists(nil, nil)
	}
	r.kindRounds = mergeCounts(r.kindRounds, kr)
	r.sentBy = mergeCounts(r.sentBy, sb)
	r.addByKind(kr)
	r.Messages += o.Messages
	r.Words += o.Words
	r.MaxWords = max(r.MaxWords, o.MaxWords)
}

// mergeCounts merges two lists sorted by key, summing the counts of equal
// keys. It never writes either input: the result is a fresh list, or b
// itself when a is empty.
func mergeCounts[T interface {
	key() int64
	plus(T) T
}](a, b []T) []T {
	if len(a) == 0 {
		return b
	}
	out := make([]T, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		switch ka, kb := a[0].key(), b[0].key(); {
		case ka < kb:
			out, a = append(out, a[0]), a[1:]
		case ka > kb:
			out, b = append(out, b[0]), b[1:]
		default:
			out, a, b = append(out, a[0].plus(b[0])), a[1:], b[1:]
		}
	}
	return append(append(out, a...), b...)
}

// MergeParallel merges o into r as the accounting of a disjoint part of
// the *same* execution — DistEngine merges its processes' reports with
// it: counters and breakdowns sum, while the time-like measures
// (CausalDepth, VirtualTime, Wall) take the maximum — the parts share one
// clock, they do not run back to back (that composition is Add).
func (r *Report) MergeParallel(o *Report) {
	r.merge(o)
	r.CausalDepth = max(r.CausalDepth, o.CausalDepth)
	r.VirtualTime = max(r.VirtualTime, o.VirtualTime)
	r.Wall = max(r.Wall, o.Wall)
}

// Add merges o into r (used when composing pipeline phases). Causal
// measures are summed because the phases run back to back. The lists sort
// by opcode first, so reports of different schemas (the spanning setup and
// the mdst improvement) compose.
func (r *Report) Add(o *Report) {
	r.merge(o)
	r.CausalDepth += o.CausalDepth
	r.VirtualTime += o.VirtualTime
	r.Wall += o.Wall
}

// KindRounds returns the deliveries per (opcode, round), sorted by opcode,
// then round; unrounded kinds count under round 0. Shared: do not modify.
func (r *Report) KindRounds() []KindRoundCount {
	r.Finalize()
	return r.kindRounds
}

// SentBy returns the messages sent per node, sorted by node, for the
// nodes that sent any. Shared: do not modify.
func (r *Report) SentBy() []SentByCount {
	r.Finalize()
	return r.sentBy
}

// Rounds returns the largest round number that carried messages.
func (r *Report) Rounds() int {
	top := 0
	for _, kr := range r.KindRounds() {
		top = max(top, kr.Round)
	}
	return top
}

// MaxSentByNode returns the largest per-node send count (hot-spot measure).
func (r *Report) MaxSentByNode() int64 {
	var top int64
	for _, s := range r.SentBy() {
		top = max(top, s.Count)
	}
	return top
}

// String renders a compact multi-line summary.
func (r *Report) String() string {
	r.Finalize()
	var b strings.Builder
	fmt.Fprintf(&b, "messages=%d words=%d maxWords=%d causalDepth=%d virtualTime=%.1f rounds=%d\n",
		r.Messages, r.Words, r.MaxWords, r.CausalDepth, r.VirtualTime, r.Rounds())
	kinds := make([]string, 0, len(r.ByKind))
	for k := range r.ByKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %-12s %d\n", k, r.ByKind[k])
	}
	return b.String()
}
