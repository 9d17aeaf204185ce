package mdegst

import (
	"errors"
	"fmt"
	"io"

	"mdegst/internal/exact"
	"mdegst/internal/exp"
	"mdegst/internal/fr"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// Re-exported fundamental types. Aliases (not definitions) so values move
// freely between the façade and the internal packages.
type (
	// Graph is an undirected graph of named nodes — the mutable builder
	// representation. Freeze it with Compile for the dense-index fast path.
	Graph = graph.Graph
	// CompiledGraph is an immutable dense-index (CSR) snapshot of a Graph:
	// adjacency in contiguous slices addressed by a NodeID<->int32 index.
	// Snapshots are safe to share across runs and goroutines; compile once
	// and reuse when executing many protocols over the same topology.
	CompiledGraph = graph.CSR
	// NodeID names a processor; identities are distinct but arbitrary.
	NodeID = graph.NodeID
	// Edge is an undirected edge in normalised (U < V) form.
	Edge = graph.Edge
	// Tree is a rooted spanning tree.
	Tree = tree.Tree
	// Mode selects the improvement protocol variant.
	Mode = mdst.Mode
	// Report is the message/time accounting of one protocol execution.
	Report = sim.Report
	// Engine executes protocols over a simulated network.
	Engine = sim.Engine
)

// Compile freezes g into an immutable dense-index snapshot (equivalent to
// g.Compile()). Use the *Compiled variants of Run, Improve and
// BuildSpanningTree to execute many pipelines over one snapshot without
// recompiling.
func Compile(g *Graph) *CompiledGraph { return g.Compile() }

// Protocol modes.
const (
	// ModeSingle is the paper's base algorithm: one exchange per round by
	// the minimum-identity maximum-degree node.
	ModeSingle = mdst.Single
	// ModeMulti is paper §3.2.6: every maximum-degree node exchanges
	// concurrently in each round.
	ModeMulti = mdst.Multi
	// ModeHybrid runs Multi rounds until they stall, then Single rounds to
	// full local optimality (recommended default).
	ModeHybrid = mdst.Hybrid
)

// InitialTree selects how the startup spanning tree is built.
type InitialTree int

const (
	// InitialFlood uses distributed flooding with echo termination from
	// the minimum-identity node (a BFS tree under unit delays).
	InitialFlood InitialTree = iota
	// InitialDFS uses the distributed token depth-first search.
	InitialDFS
	// InitialGHS uses the Gallager–Humblet–Spira protocol over
	// lexicographic edge weights.
	InitialGHS
	// InitialElection uses echo-wave extinction (no designated root).
	InitialElection
	// InitialStar uses the adversarial sequential builder rooting at a
	// maximum-degree hub — the paper's worst case (harness helper, not a
	// distributed protocol).
	InitialStar
	// InitialRandom uses a uniformly random spanning tree (Wilson's
	// algorithm; harness helper, not a distributed protocol).
	InitialRandom
)

func (it InitialTree) String() string {
	switch it {
	case InitialFlood:
		return "flood"
	case InitialDFS:
		return "dfs"
	case InitialGHS:
		return "ghs"
	case InitialElection:
		return "election"
	case InitialStar:
		return "star"
	case InitialRandom:
		return "random"
	default:
		return fmt.Sprintf("InitialTree(%d)", int(it))
	}
}

// Options configures Run and Improve. The zero value is a sensible default:
// flooding initial tree, Single mode, deterministic unit-delay engine.
type Options struct {
	// Mode is the improvement variant (default ModeSingle, the paper's
	// base algorithm).
	Mode Mode
	// Initial selects the startup spanning-tree construction (default
	// InitialFlood). Ignored by Improve.
	Initial InitialTree
	// Engine executes both phases (default deterministic event engine
	// with unit delays). Use NewAsyncEngine for true concurrency or
	// NewRandomDelayEngine for a seeded asynchrony adversary.
	Engine Engine
	// Seed feeds the sequential helpers (InitialRandom) and defaults any
	// seeded engine construction.
	Seed int64
	// TargetDegree, when positive, stops the improvement as soon as the
	// tree's maximum degree is at most this value — the paper's "degree
	// cannot exceed a given value k" variant. Zero improves to local
	// optimality.
	TargetDegree int
}

func (o Options) engine() Engine {
	if o.Engine != nil {
		return o.Engine
	}
	return NewUnitEngine()
}

// NewUnitEngine returns the deterministic discrete-event engine with unit
// delays — the paper's time-complexity model.
func NewUnitEngine() Engine {
	return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true}
}

// NewRandomDelayEngine returns a seeded discrete-event engine whose delays
// are uniform in (0.05, 1] over FIFO links — a reproducible asynchrony
// adversary.
func NewRandomDelayEngine(seed int64) Engine {
	return &sim.EventEngine{Delay: sim.UniformDelay(0.05), Seed: seed, FIFO: true}
}

// NewAsyncEngine returns the goroutine-per-node engine: real concurrency,
// scheduling decided by the Go runtime.
func NewAsyncEngine() Engine {
	return &sim.AsyncEngine{}
}

// TraceEvent describes one observable simulator step (a message delivery).
// Its Msg is a flat wire-format value record (no pointers), safe to retain.
type TraceEvent = sim.TraceEvent

// NewTracingEngine returns a unit-delay deterministic engine that reports
// every delivery to fn — the tool behind the Figure 2 wave visualisation.
// A nil fn disables tracing, making it equivalent to NewUnitEngine.
func NewTracingEngine(fn func(TraceEvent)) Engine {
	return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Trace: fn}
}

// NewTracingRandomDelayEngine is NewRandomDelayEngine with a trace
// callback. A nil fn disables tracing.
func NewTracingRandomDelayEngine(seed int64, fn func(TraceEvent)) Engine {
	return &sim.EventEngine{Delay: sim.UniformDelay(0.05), Seed: seed, FIFO: true, Trace: fn}
}

// BinaryTraceWriter encodes TraceEvents in the compact binary trace form
// (DESIGN.md §8); pair its Trace method with the tracing engine
// constructors and Close it when the run finished.
type BinaryTraceWriter = sim.BinaryTraceWriter

// NewBinaryTraceWriter starts a binary trace on w.
func NewBinaryTraceWriter(w io.Writer) *BinaryTraceWriter {
	return sim.NewBinaryTraceWriter(w)
}

// Result reports a full pipeline run.
type Result struct {
	// Initial is the startup spanning tree, Final the improved one.
	Initial, Final *Tree
	// InitialDegree and FinalDegree are their maximum degrees (the paper's
	// k and k*).
	InitialDegree, FinalDegree int
	// Rounds and Swaps count improvement rounds and applied exchanges.
	Rounds, Swaps int
	// Setup accounts the spanning-tree construction (nil when the initial
	// tree was built sequentially or supplied by the caller); Improvement
	// accounts the improvement protocol; Total merges both.
	Setup, Improvement, Total *Report
}

// BuildSpanningTree constructs the startup spanning tree of g per the
// selected method. Distributed methods run on the engine and return their
// message report; sequential helpers return a nil report.
func BuildSpanningTree(g *Graph, method InitialTree, opts Options) (*Tree, *Report, error) {
	if g.N() == 0 {
		return nil, nil, fmt.Errorf("mdegst: empty graph")
	}
	return BuildSpanningTreeCompiled(g.Compile(), method, opts)
}

// BuildSpanningTreeCompiled is BuildSpanningTree over a pre-compiled
// snapshot.
func BuildSpanningTreeCompiled(c *CompiledGraph, method InitialTree, opts Options) (*Tree, *Report, error) {
	d, rep, err := buildInitial(c, method, opts)
	if err != nil {
		return nil, nil, err
	}
	return d.ToTree(), rep, nil
}

// buildInitial builds the startup spanning tree in the dense form the
// improvement protocol starts from.
func buildInitial(c *CompiledGraph, method InitialTree, opts Options) (*tree.Dense, *Report, error) {
	if c.N() == 0 {
		return nil, nil, fmt.Errorf("mdegst: empty graph")
	}
	g := c.Source()
	var f sim.Factory
	switch method {
	case InitialFlood:
		f = spanning.NewFloodFactory(c, g.Nodes()[0])
	case InitialDFS:
		f = spanning.NewDFSFactory(g.Nodes()[0])
	case InitialGHS:
		f = spanning.NewGHSFactory()
	case InitialElection:
		f = spanning.NewElectionFactory()
	case InitialStar:
		t, err := spanning.StarTree(g)
		return sequentialInitial(c, t, err)
	case InitialRandom:
		t, err := spanning.RandomST(g, opts.Seed)
		return sequentialInitial(c, t, err)
	default:
		return nil, nil, fmt.Errorf("mdegst: unknown initial tree method %v", method)
	}
	return spanning.Build(opts.engine(), c, f)
}

// sequentialInitial converts a sequential builder's tree; such trees carry
// no message report.
func sequentialInitial(c *CompiledGraph, t *Tree, err error) (*tree.Dense, *Report, error) {
	if err != nil {
		return nil, nil, err
	}
	d, err := tree.FromTree(t, c.Index())
	return d, nil, err
}

// Run executes the full pipeline: build the startup spanning tree, then
// improve it with the paper's protocol. The graph is compiled once and the
// snapshot shared by both phases.
func Run(g *Graph, opts Options) (*Result, error) {
	if g.N() == 0 {
		return nil, fmt.Errorf("mdegst: empty graph")
	}
	return RunCompiled(g.Compile(), opts)
}

// RunCompiled is Run over a pre-compiled snapshot.
func RunCompiled(c *CompiledGraph, opts Options) (*Result, error) {
	initial, setup, err := buildInitial(c, opts.Initial, opts)
	if err != nil {
		return nil, err
	}
	r, err := mdst.Run(opts.engine(), c, initial, opts.Mode, opts.TargetDegree)
	if err != nil {
		return nil, err
	}
	res := improvement(initial.ToTree(), r)
	res.Setup = setup
	if setup != nil {
		res.Total.Add(setup)
	}
	return res, nil
}

// Improve runs the improvement protocol from the caller's spanning tree.
func Improve(g *Graph, initial *Tree, opts Options) (*Result, error) {
	return ImproveCompiled(g.Compile(), initial, opts)
}

// ImproveCompiled is Improve over a pre-compiled snapshot.
func ImproveCompiled(c *CompiledGraph, initial *Tree, opts Options) (*Result, error) {
	d, err := denseInitial(c, initial)
	if err != nil {
		return nil, err
	}
	r, err := mdst.Run(opts.engine(), c, d, opts.Mode, opts.TargetDegree)
	if err != nil {
		return nil, err
	}
	return improvement(initial, r), nil
}

// denseInitial checks a caller-supplied tree against the snapshot's graph
// and converts it to the dense form the protocol starts from. The full
// Validate comes first because tree.FromTree reads only Parent.
func denseInitial(c *CompiledGraph, initial *Tree) (*tree.Dense, error) {
	if err := initial.Validate(c.Source()); err != nil {
		return nil, fmt.Errorf("mdegst: initial tree invalid: %w", err)
	}
	return tree.FromTree(initial, c.Index())
}

// improvement wraps an improvement run's result for the facade.
func improvement(initial *Tree, r *mdst.Result) *Result {
	total := sim.NewReport()
	total.Add(r.Report)
	return &Result{
		Initial:       initial,
		Final:         r.Tree,
		InitialDegree: r.InitialDegree,
		FinalDegree:   r.FinalDegree,
		Rounds:        r.Rounds,
		Swaps:         r.Swaps,
		Improvement:   r.Report,
		Total:         total,
	}
}

// Checkpoint is a run of the improvement protocol frozen at a round
// barrier (the serialisable form the flat wire-format message plane makes
// possible; see DESIGN.md §8).
type Checkpoint = sim.Checkpoint

// CheckpointImprove runs the improvement protocol like ImproveCompiled but
// arms a checkpoint at the barrier after `round` improvement rounds
// (0 freezes the state right after all Inits). If the run reaches the
// barrier, the frozen run — protocol states, pending messages, report
// counters — is written to w as a versioned byte-exact file and (true,
// nil) returns; if it quiesces earlier the run completes and (false, nil)
// returns with nothing written. The default unit-delay engine only
// (Options.Engine must be nil).
func CheckpointImprove(c *CompiledGraph, initial *Tree, opts Options, round int64, w io.Writer) (bool, error) {
	if opts.Engine != nil {
		return false, fmt.Errorf("mdegst: checkpointing picks its own unit-delay engine; Options.Engine must be nil")
	}
	d, err := denseInitial(c, initial)
	if err != nil {
		return false, err
	}
	spec := &sim.CheckpointSpec{Round: round, W: w}
	_, err = mdst.Run(checkpointEngine(spec), c, d, opts.Mode, opts.TargetDegree)
	switch {
	case err == nil:
		return false, nil
	case errors.Is(err, sim.ErrCheckpointed):
		return true, nil
	default:
		return false, err
	}
}

// ResumeImprove continues a checkpointed improvement run read from r. The
// graph, initial tree and options must match the checkpointing run; the
// returned Result (tree, report, rounds, swaps) is bitwise-identical to
// the run never having been interrupted. Checkpoint files are
// engine-agnostic: the in-process unit-delay engine and the networked
// cluster engine (cmd/mdstd) write and resume the same bytes.
func ResumeImprove(c *CompiledGraph, initial *Tree, opts Options, r io.Reader) (*Result, error) {
	if opts.Engine != nil {
		return nil, fmt.Errorf("mdegst: resuming picks its own unit-delay engine; Options.Engine must be nil")
	}
	ck, err := sim.ReadCheckpoint(r)
	if err != nil {
		return nil, err
	}
	d, err := denseInitial(c, initial)
	if err != nil {
		return nil, err
	}
	res, err := mdst.Resume(checkpointEngine(nil), c, d, opts.Mode, opts.TargetDegree, ck)
	if err != nil {
		return nil, err
	}
	return improvement(initial, res), nil
}

// checkpointEngine builds the concrete unit-delay engine with an armed
// checkpoint spec (nil for resume).
func checkpointEngine(spec *sim.CheckpointSpec) sim.ResumableEngine {
	return &sim.EventEngine{Delay: sim.UnitDelay, FIFO: true, Checkpoint: spec}
}

// ImproveSequential runs the sequential twin of the distributed protocol —
// identical result, no simulation — and returns the improved tree with its
// round/exchange counts. It is the fast path for large parameter sweeps and
// the oracle the distributed runs are tested against.
func ImproveSequential(g *Graph, initial *Tree, mode Mode) (*Tree, int, int, error) {
	t, stats, err := fr.Twin(g, initial, mode)
	if err != nil {
		return nil, 0, 0, err
	}
	return t, stats.Rounds, stats.Swaps, nil
}

// FurerRaghavachari runs the classic sequential local search (the paper's
// reference [3]) and returns the improved tree and its exchange count.
func FurerRaghavachari(g *Graph, initial *Tree) (*Tree, int, error) {
	t, stats, err := fr.FurerRaghavachari(g, initial)
	if err != nil {
		return nil, 0, err
	}
	return t, stats.Swaps, nil
}

// ExactMinDegree returns Δ*, the optimal spanning tree degree, with a
// witness tree. Exponential: limited to small graphs (see exact package).
func ExactMinDegree(g *Graph) (int, *Tree, error) {
	return exact.MinDegree(g)
}

// DegreeLowerBound returns a cheap lower bound on Δ* valid for any size.
func DegreeLowerBound(g *Graph) int {
	return exact.DegreeLowerBound(g)
}

// ExperimentTable is one rendered experiment table of the evaluation
// harness: header, formatted rows and footnotes, printable with Fprint and
// JSON-encodable.
type ExperimentTable = exp.Table

// ExperimentProgress reports trial completion while RunExperiments executes.
type ExperimentProgress = exp.ProgressEvent

// ExperimentOptions configures RunExperiments. The zero value runs the
// full-size evaluation on GOMAXPROCS workers.
type ExperimentOptions struct {
	// Seeds is the repetitions per table cell (0: the full-size default).
	Seeds int
	// Scale shrinks workload sizes by a factor in (0,1] (0: full size).
	Scale float64
	// Parallel is the worker count (<= 0: GOMAXPROCS). Tables are
	// bit-identical at any worker count for fixed Seeds and Scale.
	Parallel int
	// Progress, when non-nil, receives one serialised callback per
	// completed trial.
	Progress func(ExperimentProgress)
}

func (o ExperimentOptions) config() exp.Config {
	cfg := exp.Default()
	if o.Seeds > 0 {
		cfg.Seeds = o.Seeds
	}
	if o.Scale > 0 {
		cfg.Scale = o.Scale
	}
	return cfg
}

// ExperimentIDs returns the experiment table ids (E1..E10, A1..A3) in
// canonical order.
func ExperimentIDs() []string { return exp.IDs() }

// RunExperiments executes the named experiment tables of the paper's
// evaluation (nil or empty means all) by fanning their independent seeded
// trials across a worker pool. For a fixed configuration the returned
// tables are deterministic — bit-identical at any Parallel value.
func RunExperiments(ids []string, opts ExperimentOptions) ([]*ExperimentTable, error) {
	r := &exp.Runner{Config: opts.config(), Parallel: opts.Parallel, Progress: opts.Progress}
	return r.Run(ids)
}

// WriteExperimentsJSON encodes tables produced by RunExperiments, together
// with the configuration that produced them, as indented JSON — the same
// machine-readable surface as `mdstbench -json`.
func WriteExperimentsJSON(w io.Writer, tables []*ExperimentTable, opts ExperimentOptions) error {
	return exp.NewResultSet(opts.config(), tables).WriteJSON(w)
}
