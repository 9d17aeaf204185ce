// Command bench is the pipeline benchmark: it solves each workload in a
// closed loop for a fixed time, checks every output, prints every metric
// by name with its unit, and with -trace 1 splits each solve across the
// repository's modules. BENCHMARK.json at the repository root names the
// workloads and metrics; README.md defines them.
//
// From the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed S] [-seconds T] [-trace 0|1] [-out FILE]
//	bash bench/run.sh -compare a.jsonl b.jsonl
//
// Each workload runs in a child process of its own. The benchmark reads
// peak resident sets from /proc, so it runs on Linux. With -workload the
// last line of standard output is one JSON object: correct, attempted,
// failed, and the end-to-end metrics (-trace 0) or the per-layer metrics
// (-trace 1) named in BENCHMARK.json.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() {
	var (
		name  = flag.String("workload", "", "run only this workload (default: all)")
		seed  = flag.Int64("seed", 1, "seed of the graph workloads' node identities")
		secs  = flag.Int("seconds", 20, "seconds of timed solves per workload")
		trace = flag.Int("trace", 1, "1: add the traced pass and report per-layer metrics; 0: end-to-end only")
		out   = flag.String("out", "", "append one JSON line per workload run to this file")
		cmp   = flag.Bool("compare", false, "compare two result files given as arguments and exit")
		child = flag.Bool("child", false, "run one workload in this process and print its run as JSON (used by the parent)")
	)
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fatal(errors.New("-trace must be 0 or 1"))
	}
	budget := time.Duration(*secs) * time.Second
	if *child {
		w, err := lookup(*name)
		if err != nil {
			fatal(err)
		}
		r, err := runWorkload(w, *seed, budget, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
			fatal(err)
		}
		return
	}

	sp, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two result files"))
		}
		a, err := readRuns(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readRuns(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		compare(os.Stdout, sp, a, b)
		return
	}

	names := []string{*name}
	if *name == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	} else if _, err := lookup(*name); err != nil {
		fatal(err)
	}
	var last *run
	for _, n := range names {
		r, err := spawn(n, *seed, *secs, *trace)
		if err != nil {
			fatal(err)
		}
		printRun(r)
		if *out != "" {
			if err := appendRun(*out, r); err != nil {
				fatal(err)
			}
		}
		last = r
	}
	if *name != "" {
		line, err := resultLine(last, sp, *trace == 1)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
}

func lookup(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// spawn runs one workload in a child process of this binary, so that no
// workload inherits another's heap, pools or resident set.
func spawn(name string, seed int64, secs, trace int) (*run, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "-child", "-workload", name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(secs), "-trace", strconv.Itoa(trace))
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	// A benchmark killed for overrunning must not leave its child running.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	var r run
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	return &r, nil
}

func appendRun(path string, r *run) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printRun(r *run) {
	fmt.Printf("== %s (seed %d, %d attempted, %d failed, nproc %d, GOMAXPROCS %d, %s)\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Host.NumCPU, r.Host.GOMAXPROCS, r.Host.Go)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s := r.Metrics[n]
		if s.N > 1 {
			fmt.Printf("  %-28s %12.6g %-11s median of %d, quartiles [%.6g, %.6g]\n", n, s.Median, s.Unit, s.N, s.Q1, s.Q3)
		} else {
			fmt.Printf("  %-28s %12.6g %s\n", n, s.Median, s.Unit)
		}
	}
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine renders the one-line result: the end-to-end metrics, or with
// trace the per-layer ones, each as BENCHMARK.json names it. A layer the
// workload does not exercise reads 0; a missing end-to-end metric or a
// unit that disagrees with BENCHMARK.json is an error.
func resultLine(r *run, sp *spec, trace bool) ([]byte, error) {
	list := sp.EndToEnd
	if trace {
		list = sp.PerLayer
	}
	metrics := map[string]value{}
	for _, m := range list {
		s, ok := r.Metrics[m.Name]
		if !ok && !trace {
			return nil, fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, m.Name)
		}
		if ok && s.Unit != m.Unit {
			return nil, fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", r.Workload, m.Name, s.Unit, m.Unit)
		}
		metrics[m.Name] = value{s.Median, m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
