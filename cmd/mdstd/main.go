// Command mdstd hosts one process of a networked MDegST deployment: many
// protocol nodes per OS process, connected to its peer processes by the
// length-framed TCP transport of internal/net (DESIGN.md §9). Every
// process of a cluster runs the identical pipeline — flood spanning tree,
// then the improvement protocol — over unit-delay rounds separated by a
// barrier protocol that rebuilds the single-process delivery order, so a
// K-process run produces the tree, report and checkpoint files
// byte-identical to the in-process simulator.
//
// The cluster is described by a JSON topology config naming the peer
// addresses, the graph, the partition strategy assigning nodes to
// processes, and the protocol parameters. Every process must be started
// with the same config.
//
// Usage:
//
//	mdstd -config cluster.json -id 0            # run as process 0
//	mdstd -config cluster.json -launch          # spawn the whole cluster over loopback
//	mdstd -config cluster.json -launch -json -  # ... and print the mdstrun-compatible JSON
//	mdstd -config cluster.json -launch -phases  # ... with per-process wire/barrier counters on stderr
//
// Crash recovery (DESIGN.md §11): -checkpoint FILE -checkpoint-round R
// freezes the improvement phase at round barrier R (process 0 writes FILE,
// all processes stop after the commit is acknowledged); -resume FILE
// restarts the cluster from the file. -checkpoint-dir DIR -checkpoint-every
// K instead commits a recovery point every K rounds while the cluster keeps
// running, and -launch -restarts N turns the coordinator into a supervisor:
// when the cluster fails it is relaunched on fresh ports from the latest
// committed recovery point (or from scratch when none exists), up to N
// times, converging to results bitwise-identical to an uninterrupted run.
// SIGINT/SIGTERM stop a cluster gracefully: the round in flight finishes,
// a final checkpoint is committed when one is armed, and every process
// exits 0.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	gonet "net"
	"os"
	"os/exec"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"mdegst"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/net"
	"mdegst/internal/sim"
)

// clusterConfig is the topology config file: one JSON document shared by
// every process of a deployment.
type clusterConfig struct {
	// Addrs lists the processes' listen addresses; process i binds
	// Addrs[i]. Length fixes the cluster size. -launch rewrites these with
	// fresh loopback ports.
	Addrs []string `json:"addrs"`
	// Graph names the generated workload (the same surface as mdstrun's
	// -graph family flags).
	Graph graphSpec `json:"graph"`
	// Partition assigns dense nodes to processes: "contiguous" (default),
	// "bfs" or "refined" (BFS regions with greedy cut refinement). On
	// gnm-256 Hybrid over 2 processes, process 0 sends 7,598 frames
	// (532,606 bytes), 6,917 (434,754) and 6,787 (406,962) respectively.
	// No strategy is fastest everywhere: refined beats contiguous there
	// but loses on a 64×64 grid in Single mode (DESIGN.md §9).
	Partition string `json:"partition,omitempty"`
	// Mode is the improvement variant: "single" (default), "multi" or
	// "hybrid".
	Mode string `json:"mode,omitempty"`
	// Target stops improvement at this maximum degree (0: full optimality).
	Target int `json:"target,omitempty"`
}

type graphSpec struct {
	Family string  `json:"family"`
	N      int     `json:"n"`
	M      int     `json:"m,omitempty"`
	P      float64 `json:"p,omitempty"`
	K      int     `json:"k,omitempty"`
	Seed   int64   `json:"seed"`
}

// runOptions carries the command line shared by the coordinator and the
// worker processes.
type runOptions struct {
	jsonOut   string
	ckptOut   string
	ckptRnd   int64
	ckptDir   string
	ckptEvery int64
	ckptKeep  int
	resume    string
	faults    string
	heartbeat time.Duration
	liveness  time.Duration
	timeout   time.Duration
	restarts  int
	phases    bool
}

func main() {
	var (
		cfgPath = flag.String("config", "", "topology config file (JSON; required)")
		id      = flag.Int("id", -1, "this process's id in the cluster (required unless -launch)")
		launch  = flag.Bool("launch", false, "coordinator mode: rewrite the config with fresh loopback ports, spawn every process, supervise the cluster")
		opts    runOptions
	)
	flag.StringVar(&opts.jsonOut, "json", "", "write the mdstrun-compatible JSON summary to this file (\"-\" for stdout; process 0 / launcher)")
	flag.StringVar(&opts.ckptOut, "checkpoint", "", "freeze the improvement phase at -checkpoint-round; process 0 writes the checkpoint file here")
	flag.Int64Var(&opts.ckptRnd, "checkpoint-round", 2, "round barrier the -checkpoint freeze happens at (0: right after Init)")
	flag.StringVar(&opts.ckptDir, "checkpoint-dir", "", "periodic mode: directory of committed recovery points (process 0 writes; the supervisor restarts from the latest)")
	flag.Int64Var(&opts.ckptEvery, "checkpoint-every", 0, "periodic mode: commit a recovery point every K improvement rounds (requires -checkpoint-dir)")
	flag.IntVar(&opts.ckptKeep, "checkpoint-keep", 3, "periodic mode: retain the newest K recovery points")
	flag.StringVar(&opts.resume, "resume", "", "resume the improvement phase from this checkpoint file (readable by every process)")
	flag.StringVar(&opts.faults, "faults", "", "deterministic fault injection plan (chaos testing; see internal/net.ParseFaultPlan)")
	flag.DurationVar(&opts.heartbeat, "heartbeat", 500*time.Millisecond, "peer liveness beacon interval (0 disables; then -liveness must be 0 too)")
	flag.DurationVar(&opts.liveness, "liveness", 10*time.Second, "declare a peer down after this long without evidence of life (0 disables; needs -heartbeat)")
	flag.DurationVar(&opts.timeout, "timeout", 30*time.Second, "mesh establishment deadline")
	flag.IntVar(&opts.restarts, "restarts", 0, "supervisor mode: relaunch a failed cluster up to this many times from the latest recovery point")
	flag.BoolVar(&opts.phases, "phases", false, "print this process's wire and barrier counters (frames, bytes, flushes, barrier wait) to stderr at exit")
	flag.Parse()

	if *cfgPath == "" {
		fatal(fmt.Errorf("-config is required"))
	}
	cfg, err := readConfig(*cfgPath)
	if err != nil {
		fatal(err)
	}
	if err := opts.validate(); err != nil {
		fatal(err)
	}

	if *launch {
		if err := superviseCluster(cfg, opts); err != nil {
			fatal(err)
		}
		return
	}
	if *id < 0 || *id >= len(cfg.Addrs) {
		fatal(fmt.Errorf("-id must be in [0, %d)", len(cfg.Addrs)))
	}
	if err := runProcess(cfg, *id, opts); err != nil {
		fatal(err)
	}
}

// validate rejects flag combinations that cannot run.
func (o runOptions) validate() error {
	switch {
	case o.ckptOut != "" && o.resume != "":
		return fmt.Errorf("-checkpoint and -resume are mutually exclusive")
	case o.ckptOut != "" && o.ckptDir != "":
		return fmt.Errorf("-checkpoint (freeze) and -checkpoint-dir (periodic) are mutually exclusive")
	case o.ckptEvery > 0 && o.ckptDir == "":
		return fmt.Errorf("-checkpoint-every requires -checkpoint-dir")
	case o.ckptDir != "" && o.ckptEvery <= 0:
		return fmt.Errorf("-checkpoint-dir requires -checkpoint-every")
	case o.liveness > 0 && o.heartbeat <= 0:
		// A process idle in a peer's solo stretch (DESIGN.md §13) may hear
		// no data frame for the whole stretch; only heartbeats tell that
		// silence from a dead peer.
		return fmt.Errorf("-liveness %v requires -heartbeat > 0 (or -liveness 0)", o.liveness)
	}
	_, err := net.ParseFaultPlan(o.faults)
	return err
}

func readConfig(path string) (*clusterConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	// A key the config does not know (misspelt or retired) is an error
	// that names it, never silently ignored.
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	cfg := &clusterConfig{}
	if err := dec.Decode(cfg); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("parsing %s: data after the config object", path)
	}
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("%s: config names no process addresses", path)
	}
	if cfg.Graph.Family == "" || cfg.Graph.N <= 0 {
		return nil, fmt.Errorf("%s: config needs graph.family and graph.n", path)
	}
	return cfg, nil
}

// compile builds and freezes the configured workload — deterministically,
// so every process of the cluster derives the identical snapshot and
// partition from the shared config.
func (cfg *clusterConfig) compile() (*mdegst.CompiledGraph, []int32, error) {
	g, _, err := mdegst.NamedGraph(cfg.Graph.Family, cfg.Graph.N, cfg.Graph.M, cfg.Graph.P, cfg.Graph.K, cfg.Graph.Seed)
	if err != nil {
		return nil, nil, err
	}
	c := mdegst.Compile(g)
	part, err := graph.PartitionNamed(c, cfg.Partition, len(cfg.Addrs))
	if err != nil {
		return nil, nil, err
	}
	return c, part.Owners(), nil
}

// runProcess is the daemon proper: establish the mesh, run the pipeline,
// and let process 0 report. SIGINT/SIGTERM latch a stop request that the
// cluster honours at the next round barrier, so the process exits 0 after
// a final checkpoint commit instead of dying mid-barrier.
func runProcess(cfg *clusterConfig, id int, opts runOptions) error {
	c, owner, err := cfg.compile()
	if err != nil {
		return err
	}
	name := cfg.Mode
	if name == "" {
		name = "single"
	}
	mode, err := mdst.ParseMode(name)
	if err != nil {
		return err
	}
	faults, err := net.ParseFaultPlan(opts.faults)
	if err != nil {
		return err
	}

	var stopFlag atomic.Bool
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		for range sigc {
			stopFlag.Store(true)
		}
	}()

	p := net.Pipeline{Mode: mode, Target: cfg.Target, CheckpointRound: -1, Stop: stopFlag.Load}
	if opts.phases {
		p.Stats = &net.NetStats{}
	}
	var ckptFile *os.File
	if opts.ckptOut != "" {
		p.CheckpointRound = opts.ckptRnd
		if id == 0 {
			if ckptFile, err = os.Create(opts.ckptOut); err != nil {
				return err
			}
			p.CheckpointW = ckptFile
		}
	}
	if opts.ckptDir != "" {
		p.CheckpointEvery = opts.ckptEvery
		if id == 0 {
			if err := os.MkdirAll(opts.ckptDir, 0o755); err != nil {
				return err
			}
			p.CheckpointSink = &sim.CheckpointDir{Dir: opts.ckptDir, Keep: opts.ckptKeep}
		}
	}
	if opts.resume != "" {
		f, err := os.Open(opts.resume)
		if err != nil {
			return err
		}
		ck, err := sim.ReadCheckpoint(f)
		f.Close()
		if err != nil {
			return err
		}
		p.Resume = ck
	}

	ln, err := net.Listen(cfg.Addrs[id])
	if err != nil {
		return err
	}
	t := net.NewTransport(ln, id, cfg.Addrs, net.Fingerprint{Procs: len(cfg.Addrs), N: c.N(), HalfEdges: c.HalfEdges()})
	t.Heartbeat = opts.heartbeat
	t.Liveness = opts.liveness
	t.Faults = faults
	if err := t.Establish(opts.timeout); err != nil {
		return err
	}
	defer t.Close()

	res, err := net.RunPipeline(t, c, owner, p)
	if p.Stats != nil {
		fmt.Fprintf(os.Stderr, "mdstd: process %d %s\n", id, p.Stats)
	}
	if ckptFile != nil {
		if cerr := ckptFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if id != 0 {
		return nil
	}
	if res.Stopped {
		fmt.Println("cluster stopped gracefully at a round barrier (final checkpoint committed where armed)")
		return nil
	}
	if res.Checkpointed {
		fmt.Printf("improvement frozen at round barrier %d -> %s (resume with -resume %s)\n", opts.ckptRnd, opts.ckptOut, opts.ckptOut)
		return nil
	}
	return report(cfg, c, res, opts.jsonOut)
}

// report prints process 0's run summary and optionally the
// mdstrun-compatible JSON, assembled through the same facade helpers so
// equal runs yield equal bytes.
func report(cfg *clusterConfig, c *mdegst.CompiledGraph, res *net.PipelineResult, jsonOut string) error {
	r := res.Result
	total := sim.NewReport()
	total.Add(r.Report)
	if res.Setup != nil {
		total.Add(res.Setup)
	}
	full := &mdegst.Result{
		Initial:       res.Initial,
		Final:         r.Tree,
		InitialDegree: r.InitialDegree,
		FinalDegree:   r.FinalDegree,
		Rounds:        r.Rounds,
		Swaps:         r.Swaps,
		Setup:         res.Setup,
		Improvement:   r.Report,
		Total:         total,
	}
	g := c.Source()
	fmt.Printf("cluster:      %d processes, partition %s\n", len(cfg.Addrs), partitionName(cfg.Partition))
	fmt.Printf("graph:        %s n=%d m=%d maxdeg=%d\n", cfg.Graph.Family, g.N(), g.M(), g.MaxDegree())
	fmt.Printf("initial tree: flood, degree k=%d\n", full.InitialDegree)
	fmt.Printf("final tree:   degree k*=%d (lower bound on Δ*: %d)\n", full.FinalDegree, mdegst.DegreeLowerBound(g))
	fmt.Printf("improvement:  %d rounds, %d exchanges, %d messages, causal depth %d\n",
		full.Rounds, full.Swaps, full.Improvement.Messages, full.Improvement.CausalDepth)
	fmt.Printf("total:        %d messages, %d words, max message %d words\n",
		full.Total.Messages, full.Total.Words, full.Total.MaxWords)
	if jsonOut == "" {
		return nil
	}
	sums := []mdegst.TrialSummary{mdegst.NewTrialSummary(cfg.Graph.Seed, g, full)}
	if jsonOut == "-" {
		return mdegst.WriteTrialSummaries(os.Stdout, sums)
	}
	f, err := os.Create(jsonOut)
	if err != nil {
		return err
	}
	if err := mdegst.WriteTrialSummaries(f, sums); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func partitionName(s string) string {
	if s == "" {
		return "contiguous"
	}
	return s
}

// superviseCluster is coordinator mode grown into a supervisor: launch the
// cluster, and when it fails relaunch it — fresh loopback ports, the
// latest committed recovery point as the resume source, injected faults
// dropped after the first attempt (a deterministic fault would otherwise
// re-fire forever) — up to the restart budget, with backoff between
// attempts. A cluster stopped by SIGINT/SIGTERM is not restarted.
func superviseCluster(cfg *clusterConfig, opts runOptions) error {
	if opts.ckptDir != "" {
		if err := os.MkdirAll(opts.ckptDir, 0o755); err != nil {
			return err
		}
	}
	var stopRequested atomic.Bool
	backoff := 200 * time.Millisecond
	for attempt := 0; ; attempt++ {
		attemptOpts := opts
		if attempt > 0 {
			// Injected faults fire on the first attempt only: the plan is
			// deterministic, so a recovered run replaying the same barriers
			// would just crash the same way again.
			attemptOpts.faults = ""
			attemptOpts.resume = ""
			if opts.ckptDir != "" {
				d := &sim.CheckpointDir{Dir: opts.ckptDir}
				if path, round, ok, err := d.Latest(); err != nil {
					return fmt.Errorf("scanning %s for recovery points: %w", opts.ckptDir, err)
				} else if ok {
					fmt.Fprintf(os.Stderr, "mdstd: restarting from the checkpoint committed at round %d\n", round)
					attemptOpts.resume = path
				} else {
					fmt.Fprintln(os.Stderr, "mdstd: no committed checkpoint; restarting from scratch")
				}
			}
		}
		err := launchOnce(cfg, attemptOpts, &stopRequested)
		if err == nil {
			return nil
		}
		if stopRequested.Load() || attempt >= opts.restarts {
			return err
		}
		fmt.Fprintf(os.Stderr, "mdstd: cluster attempt %d failed: %v\nmdstd: restarting in %v (%d of %d restarts used)\n",
			attempt+1, err, backoff, attempt+1, opts.restarts)
		time.Sleep(backoff)
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// launchOnce runs the cluster once: pick fresh loopback ports, write a
// concrete config, spawn one child per process, forward stop signals, and
// wait for everyone. Child 0 inherits stdout (and the -json / checkpoint
// flags); every child's stderr is teed into a bounded tail so a failure
// surfaces its context instead of an opaque exit code. All children are
// reaped on every path.
func launchOnce(cfg *clusterConfig, opts runOptions, stopRequested *atomic.Bool) error {
	k := len(cfg.Addrs)
	addrs, err := freeLoopbackAddrs(k)
	if err != nil {
		return err
	}
	launched := *cfg
	launched.Addrs = addrs
	dir, err := os.MkdirTemp("", "mdstd-launch-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	concrete := dir + "/cluster.json"
	data, err := json.MarshalIndent(&launched, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(concrete, data, 0o644); err != nil {
		return err
	}

	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmds := make([]*exec.Cmd, k)
	tails := make([]*tailWriter, k)
	for i := 0; i < k; i++ {
		args := []string{"-config", concrete, "-id", fmt.Sprint(i),
			"-timeout", opts.timeout.String(),
			"-heartbeat", opts.heartbeat.String(),
			"-liveness", opts.liveness.String()}
		if opts.resume != "" {
			args = append(args, "-resume", opts.resume)
		}
		if opts.ckptOut != "" {
			args = append(args, "-checkpoint", opts.ckptOut, "-checkpoint-round", fmt.Sprint(opts.ckptRnd))
		}
		if opts.ckptDir != "" {
			args = append(args, "-checkpoint-dir", opts.ckptDir,
				"-checkpoint-every", fmt.Sprint(opts.ckptEvery),
				"-checkpoint-keep", fmt.Sprint(opts.ckptKeep))
		}
		if opts.faults != "" {
			args = append(args, "-faults", opts.faults)
		}
		if opts.phases {
			args = append(args, "-phases")
		}
		if i == 0 && opts.jsonOut != "" {
			args = append(args, "-json", opts.jsonOut)
		}
		cmd := exec.Command(exe, args...)
		tails[i] = &tailWriter{max: 4096}
		cmd.Stderr = io.MultiWriter(os.Stderr, tails[i])
		if i == 0 {
			cmd.Stdout = os.Stdout
		}
		if err := cmd.Start(); err != nil {
			reapAll(cmds[:i])
			return fmt.Errorf("spawning process %d: %w", i, err)
		}
		cmds[i] = cmd
	}

	// Forward stop signals so `kill <supervisor>` stops the whole cluster
	// gracefully; the supervisor itself survives to collect the exits.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		for s := range sigc {
			stopRequested.Store(true)
			for _, cmd := range cmds {
				if cmd != nil && cmd.Process != nil {
					cmd.Process.Signal(s)
				}
			}
		}
	}()

	var firstErr error
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("process %d: %w%s", i, err, tails[i].context())
		}
	}
	if firstErr != nil {
		// One failure dooms the barrier protocol cluster-wide: reap every
		// child still running rather than letting survivors hang out their
		// liveness timers.
		reapAll(cmds)
	}
	return firstErr
}

// freeLoopbackAddrs reserves k distinct loopback ports by binding and
// immediately releasing them — the usual pre-bind trick; the window
// between release and the child's bind is negligible on a loopback
// deployment.
func freeLoopbackAddrs(k int) ([]string, error) {
	addrs := make([]string, k)
	lns := make([]gonet.Listener, 0, k)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < k; i++ {
		ln, err := gonet.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// reapAll kills and waits for every started child, so no failure path
// leaks a zombie or a process still bound to the cluster's ports.
func reapAll(cmds []*exec.Cmd) {
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Process.Kill()
		}
	}
	for _, cmd := range cmds {
		if cmd != nil && cmd.Process != nil {
			cmd.Wait()
		}
	}
}

// tailWriter keeps the last max bytes written — the child stderr context
// attached to a cluster failure.
type tailWriter struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (w *tailWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.buf = append(w.buf, p...)
	if len(w.buf) > w.max {
		w.buf = append(w.buf[:0], w.buf[len(w.buf)-w.max:]...)
	}
	return len(p), nil
}

func (w *tailWriter) context() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.buf) == 0 {
		return ""
	}
	return "\nstderr tail:\n" + string(w.buf)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdstd:", err)
	os.Exit(1)
}
