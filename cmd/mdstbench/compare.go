package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// The benchmark regression gate behind `mdstbench -perf out.json -compare
// BENCH_wire.json` and `mdstbench -netbench out.json -compare
// BENCH_net.json`: the fresh suite is diffed against its recorded baseline
// workload by workload, and the process exits non-zero when any shared
// workload regressed past the thresholds. Time comparisons get a generous multiplier
// because wall time is machine- and load-dependent; allocation counts are
// deterministic for a fixed workload, so their threshold is tight.

// allocThreshold flags an allocation regression: new allocs/op must stay
// below old * allocThreshold.
const allocThreshold = 1.10

// allocSlackAbs exempts tiny absolute drifts from the ratio gate. The
// dense-path entries run at a few hundred allocs/op, where a single GC
// cycle evicting the engines' sync.Pools mid-benchmark shifts the count
// by tens of allocs — 10%+ relative, pure noise in absolute terms. A real
// regression on these workloads (reintroducing a per-node map, losing a
// slab) costs thousands of allocs and still trips the gate.
const allocSlackAbs = 64

type comparison struct {
	name          string
	oldNs, newNs  int64
	oldAl, newAl  int64
	nsRatio       float64
	allocRatio    float64
	nsRegressed   bool
	allocRegessed bool
}

func loadPerf(path string) (*perfReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep perfReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rep, nil
}

// gate diffs fresh against the recorded baseline file and returns an error
// when any shared workload regressed past the thresholds.
func gate(baselinePath string, fresh *perfReport, nsThreshold float64) error {
	baseline, err := loadPerf(baselinePath)
	if err != nil {
		return err
	}
	if comparePerf(baseline, fresh, nsThreshold) {
		return fmt.Errorf("performance regressed against %s", baselinePath)
	}
	fmt.Fprintf(os.Stderr, "mdstbench: no regression against %s\n", baselinePath)
	return nil
}

// comparePerf diffs fresh against the recorded baseline. nsThreshold is the
// allowed ns/op growth factor (e.g. 1.25 = 25% slower fails the gate).
// Workloads present in only one report (renamed suites, different worker
// counts) are skipped.
func comparePerf(baseline *perfReport, fresh *perfReport, nsThreshold float64) (regressed bool) {
	old := make(map[string]perfEntry, len(baseline.Workloads))
	for _, w := range baseline.Workloads {
		old[w.Name] = w
	}
	// Wall time across different parallelism widths is not a regression
	// signal: a baseline recorded at GOMAXPROCS=8 compared on a 2-core
	// runner would fail the multi-process entries on hardware alone. On
	// mismatch, warn loudly and downgrade ns/op regressions to warnings;
	// allocation counts are deterministic regardless of width and stay a
	// hard gate.
	widthMismatch := baseline.GOMAXPROCS != fresh.GOMAXPROCS
	if widthMismatch {
		fmt.Fprintf(os.Stderr,
			"mdstbench: WARNING: baseline recorded at GOMAXPROCS=%d, this run at GOMAXPROCS=%d — ns/op is not comparable across widths; time regressions are reported as warnings only, allocs/op still gates\n",
			baseline.GOMAXPROCS, fresh.GOMAXPROCS)
	}
	fmt.Fprintf(os.Stderr, "mdstbench: comparing against baseline (ns/op threshold %.2fx, allocs/op threshold %.2fx)\n",
		nsThreshold, allocThreshold)
	seen := make(map[string]bool)
	for _, w := range fresh.Workloads {
		o, ok := old[w.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "mdstbench: %-44s no baseline entry — skipped\n", w.Name)
			continue
		}
		if seen[w.Name] {
			continue
		}
		seen[w.Name] = true
		c := comparison{
			name:  w.Name,
			oldNs: o.NsPerOp, newNs: w.NsPerOp,
			oldAl: o.AllocsPerOp, newAl: w.AllocsPerOp,
			nsRatio:    ratioF(w.NsPerOp, o.NsPerOp),
			allocRatio: ratioF(w.AllocsPerOp, o.AllocsPerOp),
		}
		c.nsRegressed = c.nsRatio > nsThreshold
		c.allocRegessed = c.allocRatio > allocThreshold && c.newAl-c.oldAl > allocSlackAbs
		status := "ok"
		switch {
		case c.allocRegessed, c.nsRegressed && !widthMismatch:
			status = "REGRESSED"
			regressed = true
		case c.nsRegressed:
			status = "SLOWER (warning only: GOMAXPROCS mismatch)"
		}
		fmt.Fprintf(os.Stderr, "mdstbench: %-44s ns/op %12d -> %12d (%.2fx)  allocs/op %8d -> %8d (%.2fx)  %s\n",
			c.name, c.oldNs, c.newNs, c.nsRatio, c.oldAl, c.newAl, c.allocRatio, status)
	}
	return regressed
}

// ratioF returns new/old, treating a zero or missing old value as 1x so a
// baseline without the measurement can never fail the gate.
func ratioF(newV, oldV int64) float64 {
	if oldV <= 0 {
		return 1
	}
	return float64(newV) / float64(oldV)
}
