package sim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Report aggregates the complexity measures of one protocol execution.
type Report struct {
	// Messages is the total number of messages delivered.
	Messages int64
	// ByKind counts delivered messages per message kind.
	ByKind map[string]int64
	// ByRound counts delivered messages per algorithm round for messages
	// implementing Rounder; round 0 collects unrounded messages.
	ByRound map[int]int64
	// ByKindRound refines ByKind per round, keyed "kind/round".
	ByKindRound map[string]int64
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
	// SentBy counts messages sent per node.
	SentBy map[NodeID]int64
	// Wall is the host wall-clock duration of the run.
	Wall time.Duration

	// kindRound accumulates per-(opcode, round) counts during the run
	// without touching a kind string per message; finalize materialises the
	// public ByKind, ByRound and ByKindRound maps from it once at the end,
	// rendering opcodes back to their registered kind strings.
	kindRound map[kindRoundKey]int64
	finalized bool

	// The recordFast accumulators, armed by adoptDenseSent and adoptKR on
	// the round engines' hot paths. sentDense counts sends by dense node
	// index — one array increment per message instead of a map op on a
	// 64-bit key — and kr counts deliveries per (round, opcode) in a dense
	// slab, so the hot path never touches kindRound. syncHot folds both
	// into the map-backed accumulators; finalize, MergeParallel and
	// checkpoint capture all sync first.
	sentDense []int64
	sentIDs   []NodeID
	kr        *krSlab
}

// krSlab is the dense delivery counter behind recordKR. It binds to the
// wire schema of the first delivery it counts — an engine run executes one
// protocol, so in practice every delivery — and c[round*w + op-base]
// counts the deliveries of one of that schema's w opcodes in one
// algorithm round; every entry at or beyond hi is zero. Rows one schema
// wide rather than NumOps() wide, and 32-bit counters, keep the slab
// small (an mdst row is 44 bytes); a wrap carries 2^32 into the kindRound
// map. Engines keep one in their pooled scratch and lend it to each run's
// report (adoptKR), so a warm engine grows it once and then counts
// without allocating. Other schemas' opcodes and rounds outside
// [0, krMaxRounds) fall back to the kindRound map.
type krSlab struct {
	c    []uint32
	base Op  // first opcode of the bound schema
	w    int // opcodes in the bound schema; 0 while unbound
	hi   int
}

// krMaxRounds caps the slab at krMaxRounds rows.
const krMaxRounds = 1 << 16

// krMinRows is the slab's first allocation, in rounds.
const krMinRows = 64

// bind ties an unbound slab to op's schema. OpNone and unknown opcodes
// leave it unbound.
func (s *krSlab) bind(op Op) {
	if info := opInfo(op); info != nil && info.schema != nil {
		s.base, s.w = info.schema.base, len(info.schema.specs)
	}
}

// grow makes index i addressable, at least doubling the slab. Entries
// beyond hi stay zero: the copy carries them over and make zeroes the rest.
func (s *krSlab) grow(i int) {
	rows := 2 * len(s.c) / s.w
	if rows < krMinRows {
		rows = krMinRows
	}
	for rows*s.w <= i {
		rows *= 2
	}
	if rows > krMaxRounds {
		rows = krMaxRounds
	}
	c := make([]uint32, rows*s.w)
	copy(c, s.c[:s.hi])
	s.c = c
}

// drain calls f for every nonzero counter and zeroes the slab.
func (s *krSlab) drain(f func(op Op, round int, v int64)) {
	for i, v := range s.c[:s.hi] {
		if v != 0 {
			f(s.base+Op(i%s.w), i/s.w, int64(v))
			s.c[i] = 0
		}
	}
	s.hi = 0
}

// kindRoundKey is the allocation-free composite key of the hot-path
// counter: the wire opcode and the algorithm round.
type kindRoundKey struct {
	op    Op
	round int
}

// NewReport returns an empty report ready for Add.
func NewReport() *Report {
	return &Report{
		ByKind:      make(map[string]int64),
		ByRound:     make(map[int]int64),
		ByKindRound: make(map[string]int64),
		SentBy:      make(map[NodeID]int64),
		kindRound:   make(map[kindRoundKey]int64),
	}
}

func newReport() *Report { return NewReport() }

// record accounts one delivery. It is the per-message hot path: two map
// increments on composite keys and a handful of scalar updates, no
// allocations, no interface dispatch — kind and round come straight off
// the wire record. Engines must call finalize before handing the report
// out.
func (r *Report) record(from NodeID, m WireMsg, depth int64) {
	r.Messages++
	r.kindRound[kindRoundKey{m.Op, m.MsgRound()}]++
	w := m.Words()
	r.Words += int64(w)
	if w > r.MaxWords {
		r.MaxWords = w
	}
	if depth > r.CausalDepth {
		r.CausalDepth = depth
	}
	r.SentBy[from]++
}

// adoptDenseSent arms the dense recordFast accumulators. slab must be
// zeroed, sized len(ids), and remain owned by the caller (the engines
// lend pooled scratch slabs); syncHot detaches it again, so a report that
// escapes the run never pins pooled memory.
func (r *Report) adoptDenseSent(slab []int64, ids []NodeID) {
	r.sentDense = slab[:len(ids)]
	r.sentIDs = ids
}

// adoptKR lends the report an engine's pooled (round, opcode) counter
// slab. The slab may hold counts of an aborted earlier run: they are
// cleared here. finalize detaches it again; reports that are never
// finalized (process shares) must not outlive their run.
func (r *Report) adoptKR(s *krSlab) {
	clear(s.c[:s.hi])
	s.hi, s.w = 0, 0
	r.kr = s
}

// recordKR accounts one delivery with the map ops taken off the
// per-message path — all the scalar counters plus the dense (round,
// opcode) counter, but no sender accounting.
func (r *Report) recordKR(m *WireMsg, depth int64) {
	r.Messages++
	r.countKR(m)
	w := m.Words()
	r.Words += int64(w)
	if w > r.MaxWords {
		r.MaxWords = w
	}
	if depth > r.CausalDepth {
		r.CausalDepth = depth
	}
}

// countKR bumps m's (round, opcode) counter: one slab increment when a
// slab is lent and m's opcode and round fit it, else the kindRound map.
func (r *Report) countKR(m *WireMsg) {
	if s := r.kr; s != nil {
		if s.w == 0 {
			s.bind(m.Op)
		}
		if col := int(m.Op) - int(s.base); uint(col) < uint(s.w) {
			round := 0
			if wireReg.infos[m.Op].rounded {
				round = int(m.W[0])
			}
			if uint(round) < krMaxRounds {
				i := round*s.w + col
				if i >= len(s.c) {
					s.grow(i)
				}
				if s.c[i]++; s.c[i] == 0 {
					r.kindRound[kindRoundKey{m.Op, round}] += 1 << 32
				}
				if i >= s.hi {
					s.hi = i + 1
				}
				return
			}
		}
	}
	r.kindRound[kindRoundKey{m.Op, m.MsgRound()}]++
}

// recordFast is recordKR plus sender accounting by dense index into the
// adopted slab. Callers must have armed adoptDenseSent.
func (r *Report) recordFast(fromDense int32, m *WireMsg, depth int64) {
	r.recordKR(m, depth)
	r.sentDense[fromDense]++
}

// foldKR folds the slab's counts into the kindRound map and zeroes it;
// the slab stays lent, so counting continues on top.
func (r *Report) foldKR() {
	if r.kr != nil {
		r.kr.drain(func(op Op, round int, v int64) { r.kindRound[kindRoundKey{op, round}] += v })
	}
}

// foldDense folds the dense send counts into the public SentBy map and
// detaches the borrowed slab.
func (r *Report) foldDense() {
	if r.sentDense == nil {
		return
	}
	for i, v := range r.sentDense {
		if v != 0 {
			r.SentBy[r.sentIDs[i]] += v
		}
	}
	r.sentDense, r.sentIDs = nil, nil
}

// syncHot folds every recordFast accumulator into the map-backed state,
// making kindRound and SentBy authoritative again.
func (r *Report) syncHot() {
	r.foldKR()
	r.foldDense()
}

// finalize materialises the public breakdown maps from the hot-path
// accumulators: one string formatting per distinct (kind, round) pair
// instead of one per message. The counter slab drains straight into the
// public maps and goes back to its engine; kindRound is dropped once
// folded, so every finalized report holds its counts in the public maps
// only, whichever path accumulated them. Idempotent; engines call it
// once per run.
func (r *Report) finalize() {
	if r.finalized {
		return
	}
	r.finalized = true
	r.foldDense()
	if r.kr != nil {
		r.kr.drain(r.addKindRound)
		r.kr = nil
	}
	for k, v := range r.kindRound {
		r.addKindRound(k.op, k.round, v)
	}
	r.kindRound = nil
}

// addKindRound adds v deliveries of (op, round) to the public breakdowns.
func (r *Report) addKindRound(op Op, round int, v int64) {
	kind := opKind(op)
	r.ByKind[kind] += v
	r.ByRound[round] += v
	r.ByKindRound[fmt.Sprintf("%s/%d", kind, round)] += v
}

// MergeParallel merges o into r as the accounting of a disjoint part of
// the *same* execution — DistEngine merges its processes' reports with
// it: counters and per-key breakdowns sum, while the time-like measures
// (CausalDepth, VirtualTime, Wall) take the maximum — the parts share one
// clock, they do not run back to back (that composition is Add). Either
// report may be finalized or not; the public breakdown maps are combined
// either way.
func (r *Report) MergeParallel(o *Report) {
	r.Messages += o.Messages
	if r.finalized || o.finalized {
		// Merge on the materialised public maps (finalize is idempotent;
		// o's hot-path accumulator is folded into its maps by it, so it
		// must not be merged a second time).
		r.finalize()
		o.finalize()
		for k, v := range o.ByKind {
			r.ByKind[k] += v
		}
		for k, v := range o.ByRound {
			r.ByRound[k] += v
		}
		for k, v := range o.ByKindRound {
			r.ByKindRound[k] += v
		}
	} else {
		o.syncHot()
		for k, v := range o.kindRound {
			r.kindRound[k] += v
		}
	}
	r.Words += o.Words
	if o.MaxWords > r.MaxWords {
		r.MaxWords = o.MaxWords
	}
	if o.CausalDepth > r.CausalDepth {
		r.CausalDepth = o.CausalDepth
	}
	if o.VirtualTime > r.VirtualTime {
		r.VirtualTime = o.VirtualTime
	}
	for k, v := range o.SentBy {
		r.SentBy[k] += v
	}
	if o.Wall > r.Wall {
		r.Wall = o.Wall
	}
}

// Add merges o into r (used when composing pipeline phases). Causal measures
// are summed because the phases run back to back. Both reports are finalized
// first so the public breakdown maps are materialised before merging.
func (r *Report) Add(o *Report) {
	r.finalize()
	o.finalize()
	r.Messages += o.Messages
	for k, v := range o.ByKind {
		r.ByKind[k] += v
	}
	for k, v := range o.ByRound {
		r.ByRound[k] += v
	}
	for k, v := range o.ByKindRound {
		r.ByKindRound[k] += v
	}
	r.Words += o.Words
	if o.MaxWords > r.MaxWords {
		r.MaxWords = o.MaxWords
	}
	r.CausalDepth += o.CausalDepth
	r.VirtualTime += o.VirtualTime
	for k, v := range o.SentBy {
		r.SentBy[k] += v
	}
	r.Wall += o.Wall
}

// Rounds returns the largest round number that carried messages.
func (r *Report) Rounds() int {
	r.finalize()
	max := 0
	for round := range r.ByRound {
		if round > max {
			max = round
		}
	}
	return max
}

// MaxSentByNode returns the largest per-node send count (hot-spot measure).
func (r *Report) MaxSentByNode() int64 {
	var max int64
	for _, v := range r.SentBy {
		if v > max {
			max = v
		}
	}
	return max
}

// String renders a compact multi-line summary.
func (r *Report) String() string {
	r.finalize()
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
