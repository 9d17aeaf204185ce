package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	gonet "net"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdegst"
	mdnet "mdegst/internal/net"
	"mdegst/internal/sim"
)

// A workload is one input solved in a closed loop: a single client starts
// the next solve when the previous one has returned. README.md gives the
// reason for each choice.
type workload struct {
	name string
	// gen builds the canonical graph; nil marks the tables workload.
	gen  func() *mdegst.Graph
	mode mdegst.Mode
	// procs > 1 runs each solve as that many RunPipeline processes, one
	// goroutine each, over a loopback TCP mesh.
	procs int
	// exp configures the tables workload, which regenerates every table.
	exp mdegst.ExperimentOptions
}

var workloads = []workload{
	{name: "gnm-1k", gen: func() *mdegst.Graph { return mdegst.Gnm(1024, 3072, 1) }, mode: mdegst.ModeHybrid},
	{name: "ba-2k", gen: func() *mdegst.Graph { return mdegst.BarabasiAlbert(2048, 2, 1) }, mode: mdegst.ModeHybrid},
	{name: "grid-4k", gen: func() *mdegst.Graph { return mdegst.Grid(64, 64) }, mode: mdegst.ModeSingle},
	{name: "gnm-256-dist2", gen: func() *mdegst.Graph { return mdegst.Gnm(256, 768, 1) }, mode: mdegst.ModeHybrid, procs: 2},
	{name: "tables", exp: mdegst.ExperimentOptions{Seeds: 1, Parallel: 1}},
}

const (
	// A run builds its input at least setupReps times and for at least
	// 1/setupShare of its timed budget (two seconds of a 20 s run), since
	// set-ups of a few milliseconds are noisy; setup_s is the median.
	setupReps  = 5
	setupShare = 10
	// minSolves keeps a median and a determinism check in every run, even
	// when one solve outlasts the time budget.
	minSolves = 3
	// meshTimeout bounds establishing the loopback mesh.
	meshTimeout = 10 * time.Second
	// warmScale shrinks the tables workload's set-up pass to the smallest
	// graphs the experiments build.
	warmScale = 0.01
)

// run is the result of one workload run, the unit -out writes and
// -compare reads.
type run struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Trace     bool            `json:"trace"`
	Host      host            `json:"host"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Metrics   map[string]stat `json:"metrics"`

	meter *meter
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	OS         string `json:"os"`
}

// fail records a failed solve or check; the run goes on.
func (r *run) fail(err error) {
	r.Failed++
	r.Errors = append(r.Errors, err.Error())
	fmt.Fprintf(os.Stderr, "bench: %s: FAIL: %v\n", r.Workload, err)
}

// attempt counts one solve or checked pass and records its failure.
func (r *run) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.fail(err)
	}
}

// runWorkload measures w in this process: set-up, the timed closed loop of
// untraced solves, and with trace the traced pass. With trace the loop
// gets half the budget, and the traced pass takes about the other half,
// so a traced run lasts about as long as an untraced one.
func runWorkload(w workload, seed int64, budget time.Duration, trace bool) (*run, error) {
	if trace {
		budget /= 2
	}
	// One P: the solve, its garbage collection and the calibration kernel
	// share one thread, so a run's times do not depend on how promptly the
	// host schedules a second CPU (README.md, "Steadiness").
	runtime.GOMAXPROCS(1)
	r := &run{
		Workload: w.name,
		Seed:     seed,
		Trace:    trace,
		Host:     host{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS + "/" + runtime.GOARCH},
		Metrics:  map[string]stat{},
		meter:    newMeter(),
	}
	var err error
	switch {
	case w.gen == nil:
		err = runTables(w, budget, trace, r)
	case w.procs > 1:
		err = runDist(w, seed, budget, trace, r)
	default:
		err = runLocal(w, seed, budget, trace, r)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.Metrics["fail_rate"] = single("fraction", float64(r.Failed)/float64(r.Attempted))
	r.Metrics["run.kernel_ms"] = sampled("ms", r.meter.kernelMs)
	return r, nil
}

// loop is the timed closed loop: solve back to back, each solve followed
// by its calibration block, until starting another solve would overrun the
// budget, at least minSolves times. It records the normalised and the wall
// time and the peak resident set of each successful solve, and the Go
// runtime's allocation and GC counts per solve.
func (r *run) loop(budget time.Duration, solve func() error) error {
	var before, after runtime.MemStats
	var mallocs, allocBytes, gcs uint64
	var norms, walls, peaks []float64
	start := time.Now()
	n := 0
	for {
		// Each solve starts as in a fresh process: the heap collected and
		// its free pages returned to the OS, so the peak it reaches is its
		// own, not the garbage-collection timing of the solve before.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err := solve()
		d := time.Since(t0)
		runtime.ReadMemStats(&after)
		peak, perr := peakRSS()
		if perr != nil {
			return perr
		}
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		gcs += uint64((after.NumGC - after.NumForcedGC) - (before.NumGC - before.NumForcedGC))
		norm := r.meter.normalise(d)
		n++
		r.attempt(err)
		if err == nil {
			norms, walls, peaks = append(norms, norm), append(walls, d.Seconds()), append(peaks, peak)
		}
		el := time.Since(start)
		if n >= minSolves && el+el/time.Duration(n) > budget {
			break
		}
	}
	if len(norms) > 0 {
		r.Metrics["solve_s"] = sampled("s", norms)
		r.Metrics["run.solve_wall_s"] = sampled("s", walls)
		r.Metrics["peak_rss_mb"] = sampled("MB", peaks)
	}
	per := float64(n)
	r.Metrics["run.allocs_per_solve"] = single("alloc/solve", float64(mallocs)/per)
	r.Metrics["run.alloc_mb_per_solve"] = single("MB/solve", float64(allocBytes)/per/(1<<20))
	r.Metrics["run.gc_per_solve"] = single("gc/solve", float64(gcs)/per)
	return nil
}

// resetPeakRSS sets the process's peak resident set back to its current
// one, so that peakRSS reads the peak since the call. A whole-process
// peak would also cover set-up and the traced pass.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the peak resident set in MiB from /proc/self/status.
func peakRSS() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(kb, "kB")), 64)
			return v / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// setUp repeats a workload's set-up f as setupReps and setupShare ask, each
// repetition followed by its calibration block, and records setup_s and
// run.setup_wall_s. release, when not nil, frees the previous repetition's
// input before the next one, outside the timed step.
func (r *run) setUp(budget time.Duration, f func() error, release func()) error {
	var norms, walls []float64
	start := time.Now()
	for len(norms) < setupReps || time.Since(start) < budget/setupShare {
		if release != nil && len(norms) > 0 {
			release()
		}
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		d := time.Since(t0)
		norms, walls = append(norms, r.meter.normalise(d)), append(walls, d.Seconds())
	}
	r.Metrics["setup_s"] = sampled("s", norms)
	r.Metrics["run.setup_wall_s"] = sampled("s", walls)
	return nil
}

// relabel copies g onto seeded random identities in the same relative
// order. The protocols only ever compare identities, so every seed runs
// the canonical instance's exact execution, with the same counts, while
// the identity space that every identity-keyed map hashes differs. New
// graphs per seed would move messages by about 10% and causal depth by
// about 17% between seeds, more than any bound the benchmark could keep.
func relabel(g *mdegst.Graph, seed int64) (*mdegst.Graph, error) {
	rng := rand.New(rand.NewSource(seed))
	ids := make(map[mdegst.NodeID]mdegst.NodeID, g.N())
	h := mdegst.NewGraph()
	next := mdegst.NodeID(0)
	for _, v := range g.Nodes() {
		next += 1 + mdegst.NodeID(rng.Int63n(1<<20))
		ids[v] = next
		h.AddNode(next)
	}
	for _, e := range g.Edges() {
		if err := h.AddEdge(ids[e.U], ids[e.V]); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// build generates, relabels and compiles w's graph, timing the two steps.
func build(w workload, seed int64) (*mdegst.CompiledGraph, time.Duration, time.Duration, error) {
	t0 := time.Now()
	g, err := relabel(w.gen(), seed)
	if err != nil {
		return nil, 0, 0, err
	}
	t1 := time.Now()
	c := mdegst.Compile(g)
	return c, t1.Sub(t0), time.Since(t1), nil
}

// checker holds a run's reference summary and checks every solve's
// output against it.
type checker struct {
	ref []byte
	sum mdegst.TrialSummary
}

// check requires the summary to be byte-equal to the reference, which the
// first summary becomes when none is set, and its degree to be at least
// the lower bound.
func (k *checker) check(s mdegst.TrialSummary) error {
	if s.FinalDegree < s.LowerBound {
		return fmt.Errorf("final degree %d is below the lower bound %d", s.FinalDegree, s.LowerBound)
	}
	b, err := json.Marshal(s)
	if err != nil {
		return err
	}
	if k.ref == nil {
		k.ref, k.sum = b, s
		return nil
	}
	if !bytes.Equal(b, k.ref) {
		return fmt.Errorf("summary %s differs from the reference %s", b, k.ref)
	}
	return nil
}

func (k *checker) counts(r *run) error {
	if k.ref == nil {
		return errors.New("no solve succeeded")
	}
	r.Metrics["final_degree"] = single("count", float64(k.sum.FinalDegree))
	r.Metrics["messages"] = single("count", float64(k.sum.TotalMessages))
	r.Metrics["causal_depth"] = single("count", float64(k.sum.CausalDepth))
	return nil
}

// solveLocal is one in-process solve, exactly what mdstrun does: the
// facade pipeline from a flood start, then the summary with its lower
// bound.
func solveLocal(c *mdegst.CompiledGraph, mode mdegst.Mode, seed int64) (mdegst.TrialSummary, error) {
	res, err := mdegst.RunCompiled(c, mdegst.Options{Mode: mode})
	if err != nil {
		return mdegst.TrialSummary{}, err
	}
	return mdegst.NewTrialSummary(seed, c.Source(), res), nil
}

func runLocal(w workload, seed int64, budget time.Duration, trace bool, r *run) error {
	var c *mdegst.CompiledGraph
	var gen, comp []float64
	err := r.setUp(budget, func() error {
		var g, cp time.Duration
		var err error
		if c, g, cp, err = build(w, seed); err != nil {
			return err
		}
		gen, comp = append(gen, g.Seconds()), append(comp, cp.Seconds())
		return nil
	}, nil)
	if err != nil {
		return err
	}
	r.Metrics["graph.gen_s"] = sampled("s", gen)
	r.Metrics["graph.compile_s"] = sampled("s", comp)

	var k checker
	err = r.loop(budget, func() error {
		s, err := solveLocal(c, w.mode, seed)
		if err != nil {
			return err
		}
		return k.check(s)
	})
	if err != nil {
		return err
	}
	if err := k.counts(r); err != nil {
		return err
	}
	if trace {
		r.attempt(traceLocal(c, w.mode, k.sum, r))
	}
	return nil
}

// mesh is a loopback cluster: one transport per process.
type mesh struct{ trs []*mdnet.Transport }

// dial binds procs loopback listeners and establishes the full mesh, each
// process's Establish on its own goroutine as separate processes would.
func dial(c *mdegst.CompiledGraph, procs int) (*mesh, error) {
	m := &mesh{}
	addrs := make([]string, procs)
	lns := make([]gonet.Listener, procs)
	for i := range lns {
		ln, err := mdnet.Listen("127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	fp := mdnet.Fingerprint{Procs: procs, N: c.N(), HalfEdges: c.HalfEdges()}
	for i, ln := range lns {
		m.trs = append(m.trs, mdnet.NewTransport(ln, i, addrs, fp))
	}
	if err := m.each(func(i int) error { return m.trs[i].Establish(meshTimeout) }); err != nil {
		m.close()
		return nil, fmt.Errorf("establish: %w", err)
	}
	return m, nil
}

// each runs f for every process concurrently and joins their errors. A
// failing process closes the mesh, so its peers' barriers fail instead of
// waiting for it forever.
func (m *mesh) each(f func(i int) error) error {
	errs := make([]error, len(m.trs))
	var wg sync.WaitGroup
	for i := range m.trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = f(i); errs[i] != nil {
				m.close()
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (m *mesh) close() {
	for _, t := range m.trs {
		t.Close()
	}
}

// solve runs the deployment pipeline on every process and assembles
// process 0's outcome into a facade Result the way mdstd reports it.
func (m *mesh) solve(c *mdegst.CompiledGraph, owner []int32, mode mdegst.Mode, stats []*mdnet.NetStats) (*mdegst.Result, error) {
	out := make([]*mdnet.PipelineResult, len(m.trs))
	err := m.each(func(i int) error {
		p := mdnet.Pipeline{Mode: mode, CheckpointRound: -1}
		if stats != nil {
			p.Stats = stats[i]
		}
		var err error
		out[i], err = mdnet.RunPipeline(m.trs[i], c, owner, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	pr := out[0]
	if pr.Result == nil {
		return nil, errors.New("pipeline returned without a result")
	}
	total := sim.NewReport()
	total.Add(pr.Result.Report)
	total.Add(pr.Setup)
	return &mdegst.Result{
		Initial:       pr.Initial,
		Final:         pr.Result.Tree,
		InitialDegree: pr.Result.InitialDegree,
		FinalDegree:   pr.Result.FinalDegree,
		Rounds:        pr.Result.Rounds,
		Swaps:         pr.Result.Swaps,
		Setup:         pr.Setup,
		Improvement:   pr.Result.Report,
		Total:         total,
	}, nil
}

// contiguous assigns balanced runs of consecutive dense indices to the
// processes.
func contiguous(n, procs int) []int32 {
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = int32(i * procs / n)
	}
	return owner
}

func runDist(w workload, seed int64, budget time.Duration, trace bool, r *run) error {
	var c *mdegst.CompiledGraph
	var owner []int32
	var m *mesh
	var gen, comp, est []float64
	err := r.setUp(budget, func() error {
		var g, cp time.Duration
		var err error
		if c, g, cp, err = build(w, seed); err != nil {
			return err
		}
		t0 := time.Now()
		owner = contiguous(c.N(), w.procs)
		if m, err = dial(c, w.procs); err != nil {
			return err
		}
		gen, comp, est = append(gen, g.Seconds()), append(comp, cp.Seconds()), append(est, time.Since(t0).Seconds())
		return nil
	}, func() { m.close() })
	if m != nil {
		defer m.close()
	}
	if err != nil {
		return err
	}
	r.Metrics["graph.gen_s"] = sampled("s", gen)
	r.Metrics["graph.compile_s"] = sampled("s", comp)
	r.Metrics["net.establish_s"] = sampled("s", est)

	// The reference is one in-process solve of the same graph and mode;
	// every distributed summary must equal it byte for byte.
	var k checker
	ref, err := solveLocal(c, w.mode, seed)
	if err == nil {
		err = k.check(ref)
	}
	if err != nil {
		return fmt.Errorf("in-process reference: %w", err)
	}
	solve := func(stats []*mdnet.NetStats) error {
		res, err := m.solve(c, owner, w.mode, stats)
		if err != nil {
			return err
		}
		return k.check(mdegst.NewTrialSummary(seed, c.Source(), res))
	}
	if err := r.loop(budget, func() error { return solve(nil) }); err != nil {
		return err
	}
	if err := k.counts(r); err != nil {
		return err
	}
	if !trace {
		return nil
	}
	r.attempt(traceLocal(c, w.mode, k.sum, r))
	stats := make([]*mdnet.NetStats, w.procs)
	for i := range stats {
		stats[i] = &mdnet.NetStats{}
	}
	t0 := time.Now()
	err = solve(stats)
	wall := time.Since(t0)
	if r.attempt(err); err != nil {
		return nil // recorded as a failure; the net metrics stay unmeasured
	}
	var sent, frames, wait int64
	for _, s := range stats {
		sent += s.BytesSent
		frames += s.FramesSent
		wait += s.BarrierWaitNs
	}
	rounds := float64(stats[0].Rounds)
	// The traced pass's split in-process solve is the reference time.
	if local := r.Metrics["spanning.flood_s"].Median + r.Metrics["sim.improve_s"].Median + r.Metrics["exact.lower_bound_s"].Median; local > 0 {
		r.Metrics["net.overhead_x"] = single("x", r.Metrics["run.solve_wall_s"].Median/local)
	}
	r.Metrics["net.rounds"] = single("count", rounds)
	r.Metrics["net.wire_bytes_per_round"] = single("B/round", float64(sent)/rounds)
	r.Metrics["net.frames_per_round"] = single("frame/round", float64(frames)/rounds)
	r.Metrics["net.barrier_wait_share"] = single("fraction", float64(wait)/float64(w.procs)/float64(wall))
	return nil
}

// render prints tables the way mdstbench does.
func render(ts []*mdegst.ExperimentTable) []byte {
	var b bytes.Buffer
	for _, t := range ts {
		t.Fprint(&b)
	}
	return b.Bytes()
}

// tableColumns maps the evaluation tables' count columns onto the count
// metrics: on the tables workload each metric sums its columns' cells.
var tableColumns = map[string]string{
	"messages":     "messages",
	"improve msgs": "messages",
	"setup msgs":   "messages",
	"causal depth": "causal_depth",
	"k*":           "final_degree",
}

func tableCounts(ts []*mdegst.ExperimentTable, r *run) {
	sums := map[string]float64{}
	for _, t := range ts {
		for j, h := range t.Header {
			name, ok := tableColumns[h]
			if !ok {
				continue
			}
			for _, row := range t.Rows {
				if v, err := strconv.ParseFloat(row[j], 64); err == nil {
					sums[name] += v
				}
			}
		}
	}
	for name, v := range sums {
		r.Metrics[name] = single("count", v)
	}
}

func runTables(w workload, budget time.Duration, trace bool, r *run) error {
	// Set-up is a pass over the same tables at the smallest scale: it runs
	// every code path once, so lazily initialised state is paid here.
	warm := w.exp
	warm.Seeds, warm.Scale = 1, warmScale
	err := r.setUp(budget, func() error {
		_, err := mdegst.RunExperiments(nil, warm)
		return err
	}, nil)
	if err != nil {
		return fmt.Errorf("set-up pass: %w", err)
	}

	var ref []byte
	var tabs []*mdegst.ExperimentTable
	err = r.loop(budget, func() error {
		ts, err := mdegst.RunExperiments(nil, w.exp)
		if err != nil {
			return err
		}
		if b := render(ts); ref == nil {
			ref, tabs = b, ts
		} else if !bytes.Equal(b, ref) {
			return errors.New("tables differ from the run's first regeneration")
		}
		return nil
	})
	if err != nil {
		return err
	}
	if tabs == nil {
		return errors.New("no regeneration succeeded")
	}
	tableCounts(tabs, r)
	if !trace {
		return nil
	}
	for _, t := range tabs {
		t0 := time.Now()
		ts, err := mdegst.RunExperiments([]string{t.ID}, w.exp)
		d := time.Since(t0)
		if err == nil && !bytes.Equal(render(ts), render([]*mdegst.ExperimentTable{t})) {
			err = fmt.Errorf("table %s alone differs from the full regeneration", t.ID)
		}
		r.attempt(err)
		r.Metrics["exp."+t.ID+".s"] = single("s", d.Seconds())
	}
	return nil
}
