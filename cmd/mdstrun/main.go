// Command mdstrun executes the full pipeline — build an initial spanning
// tree, then improve it with the distributed MDegST protocol — and prints a
// run summary. With -trials it becomes a seeded sweep: independent trials
// (seed, seed+1, ...) run across a worker pool and are reported
// individually plus in aggregate.
//
// Usage:
//
//	mdstrun -graph gnp -n 64 -p 0.1 -seed 1 -initial flood -mode hybrid
//	mdstrun -graph wheel -n 32 -initial star -mode single -engine random
//	mdstrun -in network.edges -mode multi -verbose
//	mdstrun -graph ba -n 128 -trials 16 -parallel 8    # parallel seed sweep
//	mdstrun -graph gnp -n 64 -json -                   # machine-readable result
//
// The -in flag reads an edge list (see cmd/graphgen); otherwise a generator
// family is selected with -graph.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"

	"mdegst"
	"mdegst/internal/graph"
	"mdegst/internal/mdst"
)

func main() {
	var (
		family   = flag.String("graph", "gnp", "graph family: gnp|gnm|ba|geo|wheel|ring|star|complete|grid|hypercube|hamchords")
		n        = flag.Int("n", 64, "number of nodes")
		m        = flag.Int("m", 0, "number of edges (gnm; default 3n)")
		p        = flag.Float64("p", 0.1, "edge probability (gnp)")
		k        = flag.Int("k", 2, "attachment degree (ba) / chords (hamchords)")
		seed     = flag.Int64("seed", 1, "generator and engine seed (first seed of a sweep)")
		in       = flag.String("in", "", "read graph from edge-list file instead of generating")
		initial  = flag.String("initial", "flood", "initial tree: flood|dfs|ghs|election|star|random")
		mode     = flag.String("mode", "single", "improvement mode: single|multi|hybrid")
		engine   = flag.String("engine", "unit", "engine: unit|random|async")
		target   = flag.Int("target", 0, "stop once the maximum degree is at most this (0: improve fully)")
		trials   = flag.Int("trials", 1, "number of independent seeded trials (seed, seed+1, ...)")
		parallel = flag.Int("parallel", 0, "workers for -trials > 1 (0: GOMAXPROCS)")
		jsonOut  = flag.String("json", "", "write machine-readable results to this file (\"-\" for stdout)")
		ckptOut  = flag.String("checkpoint", "", "freeze the improvement phase at -checkpoint-round and write the checkpoint file here, then stop (single unit-engine trial)")
		ckptRnd  = flag.Int64("checkpoint-round", 2, "round barrier the -checkpoint freeze happens at (0: right after Init)")
		resumeIn = flag.String("resume", "", "resume an improvement run from this checkpoint file (same graph/flags as the checkpointing run) and finish it")
		traceBin = flag.String("tracebin", "", "write the single trial's delivery trace in the compact binary form to this file")
		dotOut   = flag.String("dot", "", "write the final tree (with non-tree edges dashed) as Graphviz DOT to this file (single trial only)")
		verbose  = flag.Bool("verbose", false, "print the graph diameter and the message breakdown by kind and round (single trial only)")
	)
	flag.Parse()

	if *trials < 1 {
		fatal(fmt.Errorf("-trials must be at least 1"))
	}
	if *trials > 1 && (*dotOut != "" || *verbose) {
		fatal(fmt.Errorf("-dot and -verbose report a single trial"))
	}

	// Validate the selector flags once, before any trial pays the
	// graph-construction cost.
	runMode, err := mdst.ParseMode(*mode)
	if err != nil {
		fatal(err)
	}
	runInitial, err := parseInitial(*initial)
	if err != nil {
		fatal(err)
	}
	switch *engine {
	case "unit", "random", "async":
	default:
		fatal(fmt.Errorf("unknown engine %q", *engine))
	}
	// A graph that does not depend on the trial seed — an -in file or a
	// deterministic family (NamedGraph reports which) — is built and
	// compiled exactly once; the immutable snapshot is shared by every
	// trial and worker. Seeded families compile per trial.
	var shared *mdegst.CompiledGraph
	if *in != "" {
		data, err := os.ReadFile(*in)
		if err != nil {
			fatal(err)
		}
		g, err := graph.ReadEdgeList(bytes.NewReader(data))
		if err != nil {
			fatal(err)
		}
		shared = mdegst.Compile(g)
	} else {
		g, seeded, err := mdegst.NamedGraph(*family, *n, *m, *p, *k, *seed)
		if err != nil {
			fatal(err)
		}
		if !seeded {
			shared = mdegst.Compile(g)
		}
	}

	// Checkpoint/resume path: freeze the improvement phase at a round
	// barrier, or continue a frozen run — the kill/restart workflow of the
	// wire-format message plane (DESIGN.md §8). The startup spanning tree
	// is rebuilt deterministically from the flags, so the resumed pipeline
	// reports totals identical to the uninterrupted run.
	if *ckptOut != "" || *resumeIn != "" {
		if *ckptOut != "" && *resumeIn != "" {
			fatal(fmt.Errorf("-checkpoint and -resume are mutually exclusive"))
		}
		if *trials != 1 {
			fatal(fmt.Errorf("-checkpoint/-resume run a single trial"))
		}
		if *engine != "unit" {
			fatal(fmt.Errorf("-checkpoint/-resume require -engine unit (round barriers exist only there)"))
		}
		if *traceBin != "" {
			fatal(fmt.Errorf("-tracebin is not supported with -checkpoint/-resume"))
		}
		if *dotOut != "" && *ckptOut != "" {
			fatal(fmt.Errorf("-dot needs a finished run; use it with -resume, not -checkpoint"))
		}
		c := shared
		if c == nil {
			g, _, err := mdegst.NamedGraph(*family, *n, *m, *p, *k, *seed)
			if err != nil {
				fatal(err)
			}
			c = mdegst.Compile(g)
		}
		opts := mdegst.Options{Seed: *seed, TargetDegree: *target, Mode: runMode, Initial: runInitial}
		t0, setup, err := mdegst.BuildSpanningTreeCompiled(c, runInitial, opts)
		if err != nil {
			fatal(err)
		}
		if *ckptOut != "" {
			f, err := os.Create(*ckptOut)
			if err != nil {
				fatal(err)
			}
			written, err := mdegst.CheckpointImprove(c, t0, opts, *ckptRnd, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fatal(err)
			}
			if !written {
				os.Remove(*ckptOut)
				fatal(fmt.Errorf("improvement quiesced before round %d; no checkpoint written", *ckptRnd))
			}
			fmt.Printf("improvement frozen at round barrier %d -> %s (resume with -resume %s)\n", *ckptRnd, *ckptOut, *ckptOut)
			return
		}
		f, err := os.Open(*resumeIn)
		if err != nil {
			fatal(err)
		}
		res, err := mdegst.ResumeImprove(c, t0, opts, f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		res.Setup = setup
		if setup != nil {
			res.Total.Add(setup)
		}
		printSingle(c.Source(), res, *initial, *verbose)
		if *dotOut != "" {
			writeDOT(*dotOut, c, res)
		}
		if *jsonOut != "" {
			if err := writeResults(*jsonOut, []mdegst.TrialSummary{mdegst.NewTrialSummary(*seed, c.Source(), res)}); err != nil {
				fatal(err)
			}
		}
		return
	}

	// An armed binary trace writer observes the single trial's deliveries
	// (validated below: -tracebin implies one trial on a tracing engine).
	var btw *mdegst.BinaryTraceWriter
	if *traceBin != "" {
		if *trials != 1 {
			fatal(fmt.Errorf("-tracebin records a single trial"))
		}
		if *engine == "async" {
			fatal(fmt.Errorf("-tracebin requires a deterministic engine (unit or random)"))
		}
		f, err := os.Create(*traceBin)
		if err != nil {
			fatal(err)
		}
		btw = mdegst.NewBinaryTraceWriter(f)
		defer func() {
			if err := btw.Close(); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
	}

	runTrial := func(s int64) (*mdegst.CompiledGraph, *mdegst.Result, error) {
		c := shared
		if c == nil {
			g, _, err := mdegst.NamedGraph(*family, *n, *m, *p, *k, s)
			if err != nil {
				return nil, nil, err
			}
			c = mdegst.Compile(g)
		}
		var trace func(mdegst.TraceEvent)
		if btw != nil {
			trace = btw.Trace
		}
		opts := mdegst.Options{Seed: s, TargetDegree: *target, Mode: runMode, Initial: runInitial}
		switch *engine {
		case "unit":
			// The tracing constructors treat a nil callback as plain
			// engines, so one wiring covers -tracebin and ordinary runs.
			opts.Engine = mdegst.NewTracingEngine(trace)
		case "random":
			opts.Engine = mdegst.NewTracingRandomDelayEngine(s, trace)
		case "async":
			opts.Engine = mdegst.NewAsyncEngine()
		}
		res, err := mdegst.RunCompiled(c, opts)
		return c, res, err
	}

	if *trials == 1 {
		c, res, err := runTrial(*seed)
		if err != nil {
			fatal(err)
		}
		g := c.Source()
		printSingle(g, res, *initial, *verbose)
		if *dotOut != "" {
			writeDOT(*dotOut, c, res)
		}
		if *jsonOut != "" {
			if err := writeResults(*jsonOut, []mdegst.TrialSummary{mdegst.NewTrialSummary(*seed, g, res)}); err != nil {
				fatal(err)
			}
		}
		return
	}

	// Seeded sweep: independent trials over a worker pool; output order is
	// by seed regardless of completion order.
	results := make([]mdegst.TrialSummary, *trials)
	errs := make([]error, *trials)
	workers := *parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > *trials {
		workers = *trials
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range jobs {
				s := *seed + int64(i)
				c, res, err := runTrial(s)
				if err != nil {
					errs[i] = err
					continue
				}
				results[i] = mdegst.NewTrialSummary(s, c.Source(), res)
			}
		}()
	}
	for i := 0; i < *trials; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}

	fmt.Printf("%-6s %5s %6s %4s %4s %7s %7s %10s %12s\n",
		"seed", "n", "m", "k", "k*", "rounds", "swaps", "messages", "causal depth")
	var ks, kstars, msgs, depths float64
	worst := 0
	for _, r := range results {
		fmt.Printf("%-6d %5d %6d %4d %4d %7d %7d %10d %12d\n",
			r.Seed, r.N, r.M, r.InitialDegree, r.FinalDegree, r.Rounds, r.Swaps, r.TotalMessages, r.CausalDepth)
		ks += float64(r.InitialDegree)
		kstars += float64(r.FinalDegree)
		msgs += float64(r.TotalMessages)
		depths += float64(r.CausalDepth)
		if r.FinalDegree > worst {
			worst = r.FinalDegree
		}
	}
	t := float64(*trials)
	fmt.Printf("mean over %d trials on %d workers: k=%.2f k*=%.2f (worst k*=%d) messages=%.0f causal depth=%.0f\n",
		*trials, workers, ks/t, kstars/t, worst, msgs/t, depths/t)

	if *jsonOut != "" {
		if err := writeResults(*jsonOut, results); err != nil {
			fatal(err)
		}
	}
}

// writeResults writes the shared machine-readable summary form (the same
// bytes cmd/mdstd emits for an equal run) to a file or stdout.
func writeResults(path string, results []mdegst.TrialSummary) error {
	if path == "-" {
		return mdegst.WriteTrialSummaries(os.Stdout, results)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := mdegst.WriteTrialSummaries(f, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printSingle(g *mdegst.Graph, res *mdegst.Result, initial string, verbose bool) {
	// The diameter costs one BFS per node, seconds on a few thousand
	// nodes, so only -verbose pays for it.
	if verbose {
		fmt.Printf("graph:        n=%d m=%d maxdeg=%d diameter=%d\n", g.N(), g.M(), g.MaxDegree(), g.Diameter())
	} else {
		fmt.Printf("graph:        n=%d m=%d maxdeg=%d\n", g.N(), g.M(), g.MaxDegree())
	}
	fmt.Printf("initial tree: %s, degree k=%d\n", initial, res.InitialDegree)
	fmt.Printf("final tree:   degree k*=%d (lower bound on Δ*: %d)\n", res.FinalDegree, mdegst.DegreeLowerBound(g))
	fmt.Printf("improvement:  %d rounds, %d exchanges, %d messages, causal depth %d\n",
		res.Rounds, res.Swaps, res.Improvement.Messages, res.Improvement.CausalDepth)
	if res.Setup != nil {
		fmt.Printf("setup:        %d messages, causal depth %d\n", res.Setup.Messages, res.Setup.CausalDepth)
	}
	fmt.Printf("total:        %d messages, %d words, max message %d words\n",
		res.Total.Messages, res.Total.Words, res.Total.MaxWords)

	if verbose {
		fmt.Println("\nmessages by kind:")
		kinds := make([]string, 0, len(res.Total.ByKind))
		for kd := range res.Total.ByKind {
			kinds = append(kinds, kd)
		}
		sort.Strings(kinds)
		for _, kd := range kinds {
			fmt.Printf("  %-14s %8d\n", kd, res.Total.ByKind[kd])
		}
		fmt.Println("\nmessages by round:")
		byRound := make([]int64, res.Improvement.Rounds()+1)
		for _, kr := range res.Improvement.KindRounds() {
			byRound[kr.Round] += kr.Count
		}
		for r, v := range byRound {
			if v != 0 {
				fmt.Printf("  round %3d: %8d\n", r, v)
			}
		}
		fmt.Println("\nfinal tree degree histogram:")
		hist := res.Final.DegreeHistogram()
		degs := make([]int, 0, len(hist))
		for d := range hist {
			degs = append(degs, d)
		}
		sort.Ints(degs)
		for _, d := range degs {
			fmt.Printf("  degree %2d: %5d nodes\n", d, hist[d])
		}
	}
}

func writeDOT(path string, c *mdegst.CompiledGraph, res *mdegst.Result) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := res.Final.WriteDOT(f, c); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("dot:          wrote %s\n", path)
}

func parseInitial(s string) (mdegst.InitialTree, error) {
	switch s {
	case "flood":
		return mdegst.InitialFlood, nil
	case "dfs":
		return mdegst.InitialDFS, nil
	case "ghs":
		return mdegst.InitialGHS, nil
	case "election":
		return mdegst.InitialElection, nil
	case "star":
		return mdegst.InitialStar, nil
	case "random":
		return mdegst.InitialRandom, nil
	default:
		return 0, fmt.Errorf("unknown initial tree %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdstrun:", err)
	os.Exit(1)
}
