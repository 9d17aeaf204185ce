package exp

import (
	"fmt"
	"math"
	"sync"

	"mdegst/internal/apps"
	"mdegst/internal/exact"
	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// registered names one experiment's trial decomposition, the form the
// parallel Runner executes.
type registered struct {
	id string
	mk func(Config) spec
}

// specs lists every experiment in canonical order: the ablations A1–A3
// first, then E1–E10.
var specs = []registered{
	{"A1", a1Spec},
	{"A2", a2Spec},
	{"A3", a3Spec},
	{"E1", e1Spec},
	{"E2", e2Spec},
	{"E3", e3Spec},
	{"E4", e4Spec},
	{"E5", e5Spec},
	{"E6", e6Spec},
	{"E7", e7Spec},
	{"E8", e8Spec},
	{"E9", e9Spec},
	{"E10", e10Spec},
}

// IDs returns the experiment ids in canonical order (A1–A3, then E1–E10).
func IDs() []string {
	ids := make([]string, len(specs))
	for i, s := range specs {
		ids[i] = s.id
	}
	return ids
}

func unitEngine() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true} }

func mustStar(c *graph.CSR) *tree.Dense {
	t, err := spanning.StarTree(c)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return t
}

func mustRun(c *graph.CSR, t0 *tree.Dense, mode mdst.Mode) *mdst.Result {
	res, err := mdst.Run(unitEngine(), c, t0, mode, 0)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return res
}

func mustTwin(c *graph.CSR, t0 *tree.Dense, mode mdst.Mode) (*tree.Dense, fr.TwinStats) {
	t, st, err := fr.Twin(c, t0, mode, 0)
	if err != nil {
		panic(fmt.Sprintf("exp: %v", err))
	}
	return t, st
}

// snapCache memoizes compiled workload snapshots by seed. A CSR is
// immutable, so one compilation per (workload, seed) is shared by every
// trial — and every worker — of the table that owns the cache; the trials
// stay deterministic because generation itself is a pure function of the
// seed.
type snapCache struct {
	mu sync.Mutex
	m  map[int64]*graph.CSR
}

func (sc *snapCache) get(seed int64, gen func(int64) *graph.Graph) *graph.CSR {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if c, ok := sc.m[seed]; ok {
		return c
	}
	c := gen(seed).Compile()
	if sc.m == nil {
		sc.m = make(map[int64]*graph.CSR)
	}
	sc.m[seed] = c
	return c
}

type workload struct {
	name  string
	gen   func(seed int64) *graph.Graph
	snaps *snapCache
}

func newWorkload(name string, gen func(seed int64) *graph.Graph) workload {
	return workload{name: name, gen: gen, snaps: &snapCache{}}
}

// snap returns the workload's compiled snapshot at seed, compiling once per
// table (each spec constructs its own workload set, hence its own caches).
func (w workload) snap(seed int64) *graph.CSR { return w.snaps.get(seed, w.gen) }

func sweepFamilies(cfg Config) []workload {
	return []workload{
		newWorkload("gnp-sparse", func(s int64) *graph.Graph { return graph.Gnp(cfg.scale(96), 0.08, s) }),
		newWorkload("gnp-dense", func(s int64) *graph.Graph { return graph.Gnp(cfg.scale(64), 0.3, s) }),
		newWorkload("ba-hubs", func(s int64) *graph.Graph { return graph.BarabasiAlbert(cfg.scale(96), 2, s) }),
		newWorkload("geometric", func(s int64) *graph.Graph { return graph.RandomGeometric(cfg.scale(80), 0.22, s) }),
		newWorkload("hamchords", func(s int64) *graph.Graph { return graph.HamiltonianPlusChords(cfg.scale(96), cfg.scale(96), s) }),
		newWorkload("wheel", func(s int64) *graph.Graph { return graph.Wheel(cfg.scale(64)) }),
		newWorkload("hypercube", func(s int64) *graph.Graph { return graph.Hypercube(6) }),
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func maxf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func log2ceil(n int) int {
	b := 1
	for v := 2; v < n; v *= 2 {
		b++
	}
	return b
}

type e1Trial struct {
	n, m                        int
	k, kstar, bound, rs, rm, rh float64
}

// e1Spec checks "there is k-k*+1 rounds": per family, the measured round
// counts of the three modes against the paper's bound.
func e1Spec(cfg Config) spec {
	fams := sweepFamilies(cfg)
	seeds := cfg.seeds()
	var trials []func() any
	for _, w := range fams {
		for s := 0; s < seeds; s++ {
			trials = append(trials, func() any {
				c := w.snap(int64(s))
				t0 := mustStar(c)
				k, _ := t0.MaxDegree(nil)
				_, st1 := mustTwin(c, t0, mdst.Single)
				_, st2 := mustTwin(c, t0, mdst.Multi)
				_, st3 := mustTwin(c, t0, mdst.Hybrid)
				return e1Trial{
					n: c.N(), m: c.M(),
					k:     float64(k),
					kstar: float64(st1.FinalDegree),
					bound: float64(k - st1.FinalDegree + 1),
					rs:    float64(st1.Rounds),
					rm:    float64(st2.Rounds),
					rh:    float64(st3.Rounds),
				}
			})
		}
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E1",
			Title:  "rounds per run vs the paper's k-k*+1",
			Claim:  "the algorithm performs k-k*+1 rounds (paper §4.2)",
			Header: []string{"family", "n", "m", "k", "k*", "k-k*+1", "rounds(single)", "rounds(multi)", "rounds(hybrid)"},
		}
		for fi, w := range fams {
			var ks, kstars, bounds, rs, rm, rh []float64
			var n, m int
			for s := 0; s < seeds; s++ {
				tr := results[fi*seeds+s].(e1Trial)
				n, m = tr.n, tr.m
				ks = append(ks, tr.k)
				kstars = append(kstars, tr.kstar)
				bounds = append(bounds, tr.bound)
				rs = append(rs, tr.rs)
				rm = append(rm, tr.rm)
				rh = append(rh, tr.rh)
			}
			t.Add(w.name, n, m, mean(ks), mean(kstars), mean(bounds), mean(rs), mean(rm), mean(rh))
		}
		t.Note("single applies one exchange per round, so its rounds exceed the bound when several nodes share the maximum degree; multi matches the spirit of §3.2.6")
		t.Note("round counts are means over %d seeds; k* is the single-mode locally optimal degree", seeds)
		return t
	}
	return spec{id: "E1", trials: trials, assemble: assemble}
}

type e2Trial struct {
	opt, ds, dm, dh, dfr, dst, gap float64
}

// e2Spec checks the Δ*+1 guarantee against the exact optimum on small
// graphs, comparing the protocol modes with the sequential baselines.
func e2Spec(cfg Config) spec {
	families := []workload{
		newWorkload("gnm-10", func(s int64) *graph.Graph { return graph.Gnm(10, 16, s) }),
		newWorkload("gnm-12", func(s int64) *graph.Graph { return graph.Gnm(12, 20, s) }),
		newWorkload("gnp-11", func(s int64) *graph.Graph { return graph.Gnp(11, 0.35, s) }),
		newWorkload("ba-12", func(s int64) *graph.Graph { return graph.BarabasiAlbert(12, 2, s) }),
		newWorkload("bipart", func(s int64) *graph.Graph { return graph.CompleteBipartite(3, 8) }),
	}
	runs := cfg.seeds() * 4
	var trials []func() any
	for _, w := range families {
		for s := 0; s < runs; s++ {
			trials = append(trials, func() any {
				c := w.snap(int64(s))
				opt, _, err := exact.MinDegree(c)
				if err != nil {
					panic(err)
				}
				t0 := mustStar(c)
				_, s1 := mustTwin(c, t0, mdst.Single)
				_, s2 := mustTwin(c, t0, mdst.Multi)
				_, s3 := mustTwin(c, t0, mdst.Hybrid)
				_, fstats, err := fr.FurerRaghavachari(c, t0)
				if err != nil {
					panic(err)
				}
				_, sstats, err := fr.Strict(c, t0)
				if err != nil {
					panic(err)
				}
				return e2Trial{
					opt: float64(opt),
					ds:  float64(s1.FinalDegree),
					dm:  float64(s2.FinalDegree),
					dh:  float64(s3.FinalDegree),
					dfr: float64(fstats.FinalDegree),
					dst: float64(sstats.FinalDegree),
					gap: float64(s3.FinalDegree - opt),
				}
			})
		}
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E2",
			Title:  "final degree vs exact optimum Δ*",
			Claim:  "the algorithm gives a spanning tree of degree at most Δ*+1 (paper abstract, Thm 1)",
			Header: []string{"family", "runs", "Δ*(mean)", "single", "multi", "hybrid", "FR", "strict", "worst gap", "gap>1 runs"},
		}
		for fi, w := range families {
			var opts, ds, dm, dh, dfr, dst, gaps []float64
			over := 0
			for s := 0; s < runs; s++ {
				tr := results[fi*runs+s].(e2Trial)
				opts = append(opts, tr.opt)
				ds = append(ds, tr.ds)
				dm = append(dm, tr.dm)
				dh = append(dh, tr.dh)
				dfr = append(dfr, tr.dfr)
				dst = append(dst, tr.dst)
				gaps = append(gaps, tr.gap)
				if tr.gap > 1 {
					over++
				}
			}
			t.Add(w.name, runs, mean(opts), mean(ds), mean(dm), mean(dh), mean(dfr), mean(dst), maxf(gaps), over)
		}
		t.Note("worst gap / gap>1 columns refer to hybrid mode; the paper's wave ignores edges blocked only by degree-(k-1) vertices, so gaps above 1 are possible in principle (DESIGN.md deviation 5)")
		return t
	}
	return spec{id: "E2", trials: trials, assemble: assemble}
}

type sizeTrial struct {
	m, k, ks, msgs, bound, ratio, perRound float64
}

// e3Spec checks O((k-k*)·m) messages: measured improvement messages over
// the bound (k-k*+1)·m for a size sweep.
func e3Spec(cfg Config) spec {
	sizes := scaledSizes(cfg, 32, 64, 128, 256)
	seeds := cfg.seeds()
	var trials []func() any
	for _, n := range sizes {
		for s := 0; s < seeds; s++ {
			trials = append(trials, func() any {
				c := graph.Gnm(n, 3*n, int64(s)).Compile()
				t0 := mustStar(c)
				// Multi mode: the paper's k-k*+1 round count presumes §3.2.6's
				// concurrent handling of all maximum-degree nodes.
				res := mustRun(c, t0, mdst.Multi)
				k, ks := res.InitialDegree, res.FinalDegree
				b := float64(k-ks+1) * float64(c.M())
				return sizeTrial{
					m:        float64(c.M()),
					k:        float64(k),
					ks:       float64(ks),
					msgs:     float64(res.Report.Messages),
					bound:    b,
					ratio:    float64(res.Report.Messages) / b,
					perRound: float64(res.Report.Messages) / float64(res.Rounds) / float64(c.M()),
				}
			})
		}
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E3",
			Title:  "message complexity vs (k-k*+1)·m",
			Claim:  "O((k-k*)·m) messages (paper §1, §4.2)",
			Header: []string{"n", "m", "k", "k*", "messages", "(k-k*+1)·m", "ratio", "msgs/round/m"},
		}
		var ns, msgs []float64
		for ni, n := range sizes {
			var mM, kk, kks, mm, bound, ratio, perRound []float64
			for s := 0; s < seeds; s++ {
				tr := results[ni*seeds+s].(sizeTrial)
				mM = append(mM, tr.m)
				kk = append(kk, tr.k)
				kks = append(kks, tr.ks)
				mm = append(mm, tr.msgs)
				bound = append(bound, tr.bound)
				ratio = append(ratio, tr.ratio)
				perRound = append(perRound, tr.perRound)
			}
			t.Add(n, mean(mM), mean(kk), mean(kks), mean(mm), mean(bound), mean(ratio), mean(perRound))
			ns = append(ns, float64(n))
			msgs = append(msgs, mean(mm))
		}
		if len(ns) >= 2 {
			slope := (math.Log(msgs[len(msgs)-1]) - math.Log(msgs[0])) / (math.Log(ns[len(ns)-1]) - math.Log(ns[0]))
			t.Note("log-log slope of messages vs n at fixed density m=3n: %.2f (O((k-k*)m) with k~max degree predicts ~1.3-2)", slope)
		}
		t.Note("ratio is measured messages over the paper bound; at these sizes it grows with n, so the sweep does not show the bound holding up to a constant")
		return t
	}
	return spec{id: "E3", trials: trials, assemble: assemble}
}

// e4Spec checks O((k-k*)·n) time: the causal depth under unit delays over
// the bound (k-k*+1)·n.
func e4Spec(cfg Config) spec {
	sizes := scaledSizes(cfg, 32, 64, 128, 256)
	seeds := cfg.seeds()
	var trials []func() any
	for _, n := range sizes {
		for s := 0; s < seeds; s++ {
			trials = append(trials, func() any {
				c := graph.Gnm(n, 3*n, int64(s)).Compile()
				t0 := mustStar(c)
				res := mustRun(c, t0, mdst.Multi)
				k, ks := res.InitialDegree, res.FinalDegree
				b := float64(k-ks+1) * float64(n)
				return sizeTrial{
					k:        float64(k),
					ks:       float64(ks),
					msgs:     float64(res.Report.CausalDepth),
					bound:    b,
					ratio:    float64(res.Report.CausalDepth) / b,
					perRound: float64(res.Report.CausalDepth) / float64(res.Rounds) / float64(n),
				}
			})
		}
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E4",
			Title:  "time complexity (causal depth, unit delays) vs (k-k*+1)·n",
			Claim:  "O((k-k*)·n) time units (paper §1, §4.2)",
			Header: []string{"n", "k", "k*", "causal depth", "(k-k*+1)·n", "ratio", "depth/round/n"},
		}
		for ni, n := range sizes {
			var kk, kks, depth, bound, ratio, perRound []float64
			for s := 0; s < seeds; s++ {
				tr := results[ni*seeds+s].(sizeTrial)
				kk = append(kk, tr.k)
				kks = append(kks, tr.ks)
				depth = append(depth, tr.msgs)
				bound = append(bound, tr.bound)
				ratio = append(ratio, tr.ratio)
				perRound = append(perRound, tr.perRound)
			}
			t.Add(n, mean(kk), mean(kks), mean(depth), mean(bound), mean(ratio), mean(perRound))
		}
		t.Note("causal depth = longest chain of causally dependent messages, the standard asynchronous time measure the paper uses")
		return t
	}
	return spec{id: "E4", trials: trials, assemble: assemble}
}

type e5Trial struct {
	m, k, ks, swaps int
	msgs            int64
	nm              float64
}

// e5Spec exercises the O(n·m) worst case: wheels started from the hub
// star need Θ(n) exchanges over Θ(n) rounds of Θ(m) messages each.
func e5Spec(cfg Config) spec {
	sizes := scaledSizes(cfg, 16, 32, 64, 128)
	var trials []func() any
	for _, n := range sizes {
		trials = append(trials, func() any {
			c := graph.Wheel(n).Compile()
			t0 := mustStar(c)
			res := mustRun(c, t0, mdst.Single)
			return e5Trial{
				m: c.M(), k: res.InitialDegree, ks: res.FinalDegree, swaps: res.Swaps,
				msgs: res.Report.Messages,
				nm:   float64(c.N()) * float64(c.M()),
			}
		})
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E5",
			Title:  "worst case: wheel from hub star (k=n-1 down to k*)",
			Claim:  "worst case O(n·m) messages when k=n-1 and k*=2 (paper §4.2)",
			Header: []string{"n", "m", "k", "k*", "swaps", "messages", "n·m", "messages/(n·m)"},
		}
		for ni, n := range sizes {
			tr := results[ni].(e5Trial)
			t.Add(n, tr.m, tr.k, tr.ks, tr.swaps, tr.msgs, tr.nm, float64(tr.msgs)/tr.nm)
		}
		t.Note("the bounded messages/(n·m) column shows the worst case is Θ(n·m) with a small constant")
		return t
	}
	return spec{id: "E5", trials: trials, assemble: assemble}
}

type e6Trial struct {
	maxWords, kinds int
}

// e6Spec checks the O(log n) message size claim: the largest message in
// words and bits per message kind.
func e6Spec(cfg Config) spec {
	sizes := scaledSizes(cfg, 32, 128, 512)
	var trials []func() any
	for _, n := range sizes {
		trials = append(trials, func() any {
			c := graph.Gnm(n, 3*n, 1).Compile()
			t0 := mustStar(c)
			res := mustRun(c, t0, mdst.Hybrid)
			return e6Trial{maxWords: res.Report.MaxWords, kinds: len(res.Report.ByKind)}
		})
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E6",
			Title:  "message sizes (words of Θ(log n) bits)",
			Claim:  "all messages are of size O(log n), at most four numbers or identities (paper §4.2)",
			Header: []string{"n", "max words", "bits/word", "max bits", "words·kinds observed"},
		}
		for ni, n := range sizes {
			tr := results[ni].(e6Trial)
			bits := log2ceil(n)
			t.Add(n, tr.maxWords, bits, tr.maxWords*bits, tr.kinds)
		}
		t.Note("our BFSBack aggregate carries 9 words (edge report with degrees and fragment root) vs the paper's 4; still Θ(log n) bits per message — see DESIGN.md deviation on message width")
		return t
	}
	return spec{id: "E6", trials: trials, assemble: assemble}
}

type e7Trial struct {
	n, m, rounds int
	maxPerRound  map[string]int64
}

// e7Spec verifies the per-phase message budgets of one round.
func e7Spec(cfg Config) spec {
	n := cfg.scale(48)
	trials := []func() any{func() any {
		c := graph.Wheel(n).Compile()
		t0 := mustStar(c)
		res := mustRun(c, t0, mdst.Single)
		// Collect the per-round maximum for each kind.
		maxPerRound := map[string]int64{}
		for _, kr := range res.Report.KindRounds() {
			maxPerRound[kr.Kind()] = max(maxPerRound[kr.Kind()], kr.Count)
		}
		return e7Trial{n: c.N(), m: c.M(), rounds: res.Rounds, maxPerRound: maxPerRound}
	}}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E7",
			Title:  "per-phase messages in a round (wheel from hub star, single mode)",
			Claim:  "SearchDegree ≤ n-1, MoveRoot ≤ n-1, Cut+BFS ≤ 2m, Choose ≤ n-1 per round (paper §4.2)",
			Header: []string{"kind", "max per round", "budget", "within"},
		}
		tr := results[0].(e7Trial)
		nn, m := int64(tr.n), int64(tr.m)
		budgets := []struct {
			kind   string
			budget int64
			label  string
		}{
			{"mdst.start", nn - 1, "n-1"},
			{"mdst.deg", nn - 1, "n-1"},
			{"mdst.move", nn - 1, "n-1"},
			{"mdst.cut", nn - 1, "n-1"},
			{"mdst.bfs", 2 * m, "2m"},
			{"mdst.cousin", m, "m"},
			{"mdst.bfsback", nn - 1 + m, "n-1+m"},
			{"mdst.update", nn, "n"},
			{"mdst.child", 1, "1"},
			{"mdst.rounddone", nn, "n"},
			{"mdst.term", nn - 1, "n-1"},
		}
		for _, b := range budgets {
			got := tr.maxPerRound[b.kind]
			t.Add(b.kind, got, b.label, got <= b.budget)
		}
		t.Note("n=%d m=%d rounds=%d; the BFS wave costs up to 3 messages per edge in our unblocking scheme vs the paper's claimed 2 (DESIGN.md deviation 3), still O(m)", tr.n, tr.m, tr.rounds)
		return t
	}
	return spec{id: "E7", trials: trials, assemble: assemble}
}

type e8Trial struct {
	m, ks int
	msgs  int64
}

// e8Spec compares against the Korach–Moran–Zaks Ω(n²/k) lower bound on
// complete graphs.
func e8Spec(cfg Config) spec {
	sizes := scaledSizes(cfg, 8, 16, 32, 64)
	var trials []func() any
	for _, n := range sizes {
		trials = append(trials, func() any {
			c := graph.Complete(n).Compile()
			t0 := mustStar(c)
			res := mustRun(c, t0, mdst.Multi)
			return e8Trial{m: c.M(), ks: res.FinalDegree, msgs: res.Report.Messages}
		})
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E8",
			Title:  "complete graphs vs the KMZ Ω(n²/k) lower bound",
			Claim:  "message count is 'not far from the optimal' Ω(n²/k) of [KMZ87] (paper §1, §5)",
			Header: []string{"n", "m", "k*", "messages", "n²/k*", "ratio"},
		}
		for ni, n := range sizes {
			tr := results[ni].(e8Trial)
			lb := float64(n*n) / float64(tr.ks)
			t.Add(n, tr.m, tr.ks, tr.msgs, lb, float64(tr.msgs)/lb)
		}
		t.Note("the ratio grows with n because the improvement needs k-k* rounds over m=Θ(n²) edges; the paper's own worst case is O(n·m)=O(n³) against this Ω(n²/k) bound")
		return t
	}
	return spec{id: "E8", trials: trials, assemble: assemble}
}

type e9Trial struct {
	k, ks, rounds, swaps int
	improveMsgs          int64
	setupMsgs            int64
}

// e9Spec measures the sensitivity to the startup tree construction —
// the paper's closing remark about obtaining "a not so bad k".
func e9Spec(cfg Config) spec {
	n := cfg.scale(96)
	// The workload graph is deterministic; the snapshot cache compiles it
	// once and every builder trial shares the immutable result.
	w := newWorkload("e9", func(int64) *graph.Graph { return graph.BarabasiAlbert(n, 2, 3) })
	type builder struct {
		name  string
		build func(c *graph.CSR) (*tree.Dense, *sim.Report)
	}
	distributed := func(factory func(c *graph.CSR) sim.Factory) func(c *graph.CSR) (*tree.Dense, *sim.Report) {
		return func(c *graph.CSR) (*tree.Dense, *sim.Report) {
			d, rep, err := spanning.Build(unitEngine(), c, factory(c))
			if err != nil {
				panic(err)
			}
			return d, rep
		}
	}
	builders := []builder{
		{"flood(BFS)", distributed(func(c *graph.CSR) sim.Factory { return spanning.NewFloodFactory(c, c.Index().ID(0)) })},
		{"dfs", distributed(func(c *graph.CSR) sim.Factory { return spanning.NewDFSFactory(c.Index().ID(0)) })},
		{"ghs", distributed(func(*graph.CSR) sim.Factory { return spanning.NewGHSFactory() })},
		{"election", distributed(func(*graph.CSR) sim.Factory { return spanning.NewElectionFactory() })},
		{"star(worst)", func(c *graph.CSR) (*tree.Dense, *sim.Report) { return mustStar(c), nil }},
		{"random", func(c *graph.CSR) (*tree.Dense, *sim.Report) {
			tr, err := spanning.RandomST(c, 7)
			if err != nil {
				panic(err)
			}
			return tr, nil
		}},
	}
	var trials []func() any
	for _, b := range builders {
		trials = append(trials, func() any {
			c := w.snap(0)
			t0, setup := b.build(c)
			res := mustRun(c, t0, mdst.Hybrid)
			setupMsgs := int64(0)
			if setup != nil {
				setupMsgs = setup.Messages
			}
			return e9Trial{
				k: res.InitialDegree, ks: res.FinalDegree,
				rounds: res.Rounds, swaps: res.Swaps,
				improveMsgs: res.Report.Messages, setupMsgs: setupMsgs,
			}
		})
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E9",
			Title:  "initial-tree sensitivity (hybrid mode)",
			Claim:  "'we can hope to change the ST construction in order to obtain a not so bad k' (paper §4.2)",
			Header: []string{"initial", "k", "k*", "rounds", "swaps", "improve msgs", "setup msgs"},
		}
		for bi, b := range builders {
			tr := results[bi].(e9Trial)
			t.Add(b.name, tr.k, tr.ks, tr.rounds, tr.swaps, tr.improveMsgs, tr.setupMsgs)
		}
		c := w.snap(0)
		t.Note("n=%d m=%d (Barabási–Albert, hubby): a better initial k shrinks rounds and messages, exactly the paper's remark", c.N(), c.M())
		return t
	}
	return spec{id: "E9", trials: trials, assemble: assemble}
}

type e10Trial struct {
	n, before, after        int
	loadBefore, loadAfter   int64
	depthBefore, depthAfter int
}

// e10Spec quantifies the intro motivation by actually running a
// broadcast-with-ack protocol over the tree before and after improvement
// and measuring each node's send count on the simulator.
func e10Spec(cfg Config) spec {
	fams := sweepFamilies(cfg)
	var trials []func() any
	for _, w := range fams {
		trials = append(trials, func() any {
			c := w.snap(1)
			t0 := mustStar(c)
			final, _ := mustTwin(c, t0, mdst.Hybrid)
			before, _ := t0.MaxDegree(nil)
			after, _ := final.MaxDegree(nil)
			rb, err := apps.Run(unitEngine(), c, apps.Config{Tree: t0, Ack: true})
			if err != nil {
				panic(err)
			}
			ra, err := apps.Run(unitEngine(), c, apps.Config{Tree: final, Ack: true})
			if err != nil {
				panic(err)
			}
			return e10Trial{
				n: c.N(), before: before, after: after,
				loadBefore: rb.MaxLoad, loadAfter: ra.MaxLoad,
				depthBefore: rb.Depth, depthAfter: ra.Depth,
			}
		})
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "E10",
			Title:  "broadcast hot-spot load before/after improvement (measured)",
			Claim:  "a high-degree tree node 'might cause an undesirable communication load'; broadcasting on a MDegST reduces per-site work (paper §1)",
			Header: []string{"family", "n", "k(init)", "k(final)", "hot-spot sends before", "after", "reduction", "depth before", "after"},
		}
		for fi, w := range fams {
			tr := results[fi].(e10Trial)
			t.Add(w.name, tr.n, tr.before, tr.after, tr.loadBefore, tr.loadAfter,
				fmt.Sprintf("%.1fx", float64(tr.loadBefore)/float64(tr.loadAfter)),
				tr.depthBefore, tr.depthAfter)
		}
		t.Note("hot-spot sends measured by running broadcast+ack over each tree; the load equals the maximum tree degree, which the improvement minimises — at the cost of deeper trees (latency column)")
		return t
	}
	return spec{id: "E10", trials: trials, assemble: assemble}
}

type modeTrial struct {
	k, ks, rounds, swaps int
	msgs, depth          int64
}

var ablationModes = []mdst.Mode{mdst.Single, mdst.Multi, mdst.Hybrid}

// a1Spec is the mode ablation: exchanges per round vs rounds vs quality.
func a1Spec(cfg Config) spec {
	fams := sweepFamilies(cfg)[:4]
	var trials []func() any
	for _, w := range fams {
		for _, mode := range ablationModes {
			trials = append(trials, func() any {
				c := w.snap(2)
				t0 := mustStar(c)
				res := mustRun(c, t0, mode)
				return modeTrial{
					k: res.InitialDegree, ks: res.FinalDegree,
					rounds: res.Rounds, swaps: res.Swaps,
					msgs: res.Report.Messages, depth: res.Report.CausalDepth,
				}
			})
		}
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "A1",
			Title:  "ablation: single vs multi vs hybrid",
			Claim:  "§3.2.6 (multi) needs fewer rounds than single; its owners exchange only within their fragments or into their parent fragment (DESIGN.md deviation 4), so it can stop at a weaker local optimum, and hybrid's Single rounds then restore single's optimality condition, though not always single's degree",
			Header: []string{"family", "mode", "k", "k*", "rounds", "swaps", "messages", "causal depth"},
		}
		i := 0
		for _, w := range fams {
			for _, mode := range ablationModes {
				tr := results[i].(modeTrial)
				i++
				t.Add(w.name, mode.String(), tr.k, tr.ks, tr.rounds, tr.swaps, tr.msgs, tr.depth)
			}
		}
		return t
	}
	return spec{id: "A1", trials: trials, assemble: assemble}
}

type a2Trial struct {
	identical, roundsEq, swapsEq, searchesEq bool
}

// a2Spec is the oracle ablation: the distributed run must equal the
// sequential twin exactly.
func a2Spec(cfg Config) spec {
	fams := sweepFamilies(cfg)[:5]
	var trials []func() any
	for _, w := range fams {
		for _, mode := range ablationModes {
			trials = append(trials, func() any {
				c := w.snap(3)
				t0 := mustStar(c)
				res := mustRun(c, t0, mode)
				twinTree, st := mustTwin(c, t0, mode)
				return a2Trial{
					identical:  res.Tree.Equal(twinTree),
					roundsEq:   res.Rounds == st.Rounds,
					swapsEq:    res.Swaps == st.Swaps,
					searchesEq: res.Report.ByKind["mdst.deg"] == int64(c.N()-1)*int64(st.Searches),
				}
			})
		}
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "A2",
			Title:  "distributed protocol vs sequential twin (exact equality)",
			Claim:  "the distributed protocol is a faithful distribution of the sequential improvement (correctness argument)",
			Header: []string{"family", "mode", "identical tree", "rounds equal", "swaps equal", "deg equal"},
		}
		i := 0
		for _, w := range fams {
			for _, mode := range ablationModes {
				tr := results[i].(a2Trial)
				i++
				t.Add(w.name, mode.String(), tr.identical, tr.roundsEq, tr.swapsEq, tr.searchesEq)
			}
		}
		return t
	}
	return spec{id: "A2", trials: trials, assemble: assemble}
}

type a3Trial struct {
	msgs, depth int64
	ks          int
	final       *mdst.Result
}

// a3Spec is the engine ablation: the result and message count must be
// delivery-independent; only time-like measures may differ.
func a3Spec(cfg Config) spec {
	n := cfg.scale(64)
	w := newWorkload("a3", func(int64) *graph.Graph { return graph.Gnm(n, 3*n, 4) })
	engines := []struct {
		name string
		mk   func() sim.Engine
	}{
		{"event-unit", unitEngine},
		{"event-random-fifo", func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.05), Seed: 1, FIFO: true} }},
		{"event-random-nofifo", func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.05), Seed: 2, FIFO: false} }},
		{"async-goroutines", func() sim.Engine { return &sim.AsyncEngine{} }},
	}
	// Trial 0 is the unit-delay reference run the other trees are compared
	// against; trials 1..len(engines) are the engine runs.
	trials := []func() any{func() any {
		c := w.snap(0)
		return a3Trial{final: mustRun(c, mustStar(c), mdst.Hybrid)}
	}}
	for _, e := range engines {
		trials = append(trials, func() any {
			c := w.snap(0)
			res, err := mdst.Run(e.mk(), c, mustStar(c), mdst.Hybrid, 0)
			if err != nil {
				panic(err)
			}
			return a3Trial{msgs: res.Report.Messages, depth: res.Report.CausalDepth, ks: res.FinalDegree, final: res}
		})
	}
	assemble := func(results []any) *Table {
		t := &Table{
			ID:     "A3",
			Title:  "ablation: engines and delay models",
			Claim:  "the algorithm is asynchronous and event-driven: its result does not depend on delays (paper §2)",
			Header: []string{"engine", "messages", "causal depth", "final k", "same tree as unit"},
		}
		ref := results[0].(a3Trial).final.Tree
		for ei, e := range engines {
			tr := results[ei+1].(a3Trial)
			// The goroutine engine's causal depth depends on the Go
			// scheduler, so it is elided to keep the table reproducible.
			depth := any(tr.depth)
			if e.name == "async-goroutines" {
				depth = "-"
			}
			t.Add(e.name, tr.msgs, depth, tr.ks, tr.final.Tree.Equal(ref))
		}
		t.Note("message counts are identical across engines because every send is delivery-order independent; causal depth varies with the adversary (elided for the goroutine engine: it depends on the host scheduler)")
		return t
	}
	return spec{id: "A3", trials: trials, assemble: assemble}
}

// scaledSizes applies cfg's size factor to a size sweep.
func scaledSizes(cfg Config, sizes ...int) []int {
	out := make([]int, len(sizes))
	for i, n := range sizes {
		out[i] = cfg.scale(n)
	}
	return out
}
