package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// spec is the part of BENCHMARK.json the benchmark reads: the workload
// names, and the metrics each run reports with their units and bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns reads a result file: one JSON run per line, as -out appends
// them. A file holding several runs of a workload is a set.
func readRuns(path string) ([]run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []run
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r run
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// side summarises one side of a comparison for one workload and metric.
// Over several runs it is the distribution of the runs' medians, the
// statistic the bounds are set on; a single run falls back to the spread
// of its own samples.
func side(runs []run, workload, metric string) (stat, []float64, bool) {
	var vals []float64
	var last stat
	for _, r := range runs {
		if s, ok := r.Metrics[metric]; ok && r.Workload == workload {
			vals = append(vals, s.Median)
			last = s
		}
	}
	switch len(vals) {
	case 0:
		return stat{}, nil, false
	case 1:
		return last, vals, true
	}
	return sampled(last.Unit, vals), vals, true
}

// verdict judges b against a. It is unresolved when either side's spread
// exceeds the bound, unless every run of one side beats every run of the
// other.
func verdict(a, b stat, av, bv []float64, m specMetric) string {
	sign := 1.0 // positive deltas are worse
	if m.Better == "higher" {
		sign = -1
	}
	worse := func(x, y float64) bool { return sign*(y-x) > 0 }
	if math.Max(a.spread(), b.spread()) > m.Bound {
		if len(av) > 1 && len(bv) > 1 {
			allWorse, allBetter := true, true
			for _, x := range av {
				for _, y := range bv {
					allWorse = allWorse && worse(x, y)
					allBetter = allBetter && worse(y, x)
				}
			}
			if allWorse {
				return "worse"
			}
			if allBetter {
				return "better"
			}
		}
		return "unresolved"
	}
	delta := 0.0
	if a.Median != 0 {
		delta = sign * (b.Median - a.Median) / a.Median
	} else if b.Median != 0 {
		delta = sign * math.Inf(1)
	}
	switch {
	case delta > m.Bound:
		return "worse"
	case delta < -m.Bound:
		return "better"
	}
	return "same"
}

// compare prints, for every workload and end-to-end metric, both sides'
// medians and quartiles and the verdict on b against a.
func compare(w io.Writer, sp *spec, a, b []run) {
	fmt.Fprintf(w, "%-14s %-13s %-36s %-36s %s\n", "workload", "metric", "a: median [q1, q3] n", "b: median [q1, q3] n", "verdict")
	for _, wl := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			sa, av, okA := side(a, wl.Name, m.Name)
			sb, bv, okB := side(b, wl.Name, m.Name)
			if !okA || !okB {
				continue
			}
			fmt.Fprintf(w, "%-14s %-13s %-36s %-36s %s (bound %g)\n", wl.Name, m.Name, cell(sa), cell(sb), verdict(sa, sb, av, bv, m), m.Bound)
		}
	}
}

func cell(s stat) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] %d %s", s.Median, s.Q1, s.Q3, s.N, s.Unit)
}
