// Command mdstbench regenerates the evaluation tables listed under
// "Experiment tables" in README.md: one table per experiment id defined in
// DESIGN.md §4. Trials are fanned across a worker pool; for a fixed
// -seeds/-scale the tables are bit-identical at any -parallel value.
//
// Usage:
//
//	mdstbench                   # run every experiment on GOMAXPROCS workers
//	mdstbench -exp E3,E4        # run selected experiments
//	mdstbench -quick            # reduced sizes and seeds (seconds, not minutes)
//	mdstbench -seeds 10         # more repetitions per cell
//	mdstbench -parallel 1       # sequential execution
//	mdstbench -progress         # live per-trial progress on stderr
//	mdstbench -json out.json    # machine-readable tables ("-" for stdout)
//	mdstbench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                            # ... with pprof evidence for perf work
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"mdegst/internal/exp"
)

func main() { os.Exit(mainE()) }

// options is the parsed flag set, passed as one value so call sites cannot
// transpose the many same-typed flags.
type options struct {
	which      string
	quick      bool
	seeds      int
	scale      float64
	parallel   int
	progress   bool
	jsonOut    string
	cpuProfile string
	memProfile string
}

func parseFlags() options {
	var o options
	flag.StringVar(&o.which, "exp", "", "comma-separated experiment ids (default: all)")
	flag.BoolVar(&o.quick, "quick", false, "reduced scale for a fast pass")
	flag.IntVar(&o.seeds, "seeds", 0, "override repetitions per cell")
	flag.Float64Var(&o.scale, "scale", 0, "override size factor in (0,1]")
	flag.IntVar(&o.parallel, "parallel", 0, "worker count (0: GOMAXPROCS)")
	flag.BoolVar(&o.progress, "progress", false, "report per-trial progress on stderr")
	flag.StringVar(&o.jsonOut, "json", "", "also write tables as JSON to this file (\"-\" for stdout)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an end-of-run heap profile to this file")
	flag.Parse()
	return o
}

// mainE is main behind an os.Exit-free frame so the CPU-profile defer runs
// on every exit path, including errors.
func mainE() int {
	o := parseFlags()

	// Profiling wraps the run so every exit path — including errors — still
	// flushes the profiles; perf work attaches them as evidence instead of
	// guessing at hot spots.
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mdstbench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fmt.Fprintln(os.Stderr, "mdstbench:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "mdstbench:", err)
			}
		}()
	}
	err := run(o)
	if o.memProfile != "" {
		if merr := writeHeapProfile(o.memProfile); merr != nil {
			if err == nil {
				err = merr
			} else {
				// The run error wins the exit path; still surface the
				// profile failure instead of silently dropping it.
				fmt.Fprintln(os.Stderr, "mdstbench:", merr)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdstbench:", err)
		return 1
	}
	return 0
}

func run(o options) error {
	cfg := exp.Default()
	if o.quick {
		cfg = exp.Quick()
	}
	if o.seeds > 0 {
		cfg.Seeds = o.seeds
	}
	if o.scale > 0 {
		cfg.Scale = o.scale
	}

	var ids []string
	if o.which != "" {
		for _, id := range strings.Split(o.which, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}

	runner := &exp.Runner{Config: cfg, Parallel: o.parallel}
	if o.progress {
		runner.Progress = func(ev exp.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "mdstbench: %-4s %3d/%3d trials (%v)\n",
				ev.Experiment, ev.Done, ev.Total, ev.Elapsed.Round(time.Millisecond))
		}
	}
	start := time.Now()
	tables, err := runner.Run(ids)
	if err != nil {
		return err
	}
	for _, tbl := range tables {
		tbl.Fprint(os.Stdout)
	}
	fmt.Fprintf(os.Stderr, "mdstbench: %d tables on %d workers in %v\n", len(tables), runner.Workers(), time.Since(start).Round(time.Millisecond))

	if o.jsonOut != "" {
		return writeJSON(o.jsonOut, cfg, tables)
	}
	return nil
}

// writeHeapProfile forces a GC so the heap profile reflects live retention,
// then writes it.
func writeHeapProfile(path string) error {
	return writeTo(path, func(w io.Writer) error {
		runtime.GC()
		return pprof.WriteHeapProfile(w)
	})
}

func writeJSON(path string, cfg exp.Config, tables []*exp.Table) error {
	return writeTo(path, exp.NewResultSet(cfg, tables).WriteJSON)
}

// writeTo streams write to the named file ("-" for stdout), propagating
// close errors so a failed flush cannot pass for success.
func writeTo(path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
