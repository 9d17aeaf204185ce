package mdegst

import (
	"encoding/json"
	"fmt"
	"io"
)

// The shared trial-summary surface of the command-line tools. cmd/mdstrun
// (in-process simulator) and cmd/mdstd (networked deployment) both render
// runs through these helpers, so a loopback cluster's JSON output can be
// byte-diffed against the simulator's — which is exactly what the CI
// loopback smoke does.

// TrialSummary is the machine-readable summary of one pipeline run.
type TrialSummary struct {
	Seed           int64 `json:"seed"`
	N              int   `json:"n"`
	M              int   `json:"m"`
	GraphMaxDegree int   `json:"graph_max_degree"`
	InitialDegree  int   `json:"initial_degree"`
	FinalDegree    int   `json:"final_degree"`
	LowerBound     int   `json:"degree_lower_bound"`
	Rounds         int   `json:"rounds"`
	Swaps          int   `json:"swaps"`
	SetupMessages  int64 `json:"setup_messages"`
	TotalMessages  int64 `json:"total_messages"`
	TotalWords     int64 `json:"total_words"`
	MaxWords       int   `json:"max_message_words"`
	CausalDepth    int64 `json:"causal_depth"`
}

// NewTrialSummary condenses one pipeline result into the summary form.
func NewTrialSummary(seed int64, g *Graph, res *Result) TrialSummary {
	setup := int64(0)
	if res.Setup != nil {
		setup = res.Setup.Messages
	}
	return TrialSummary{
		Seed:           seed,
		N:              g.N(),
		M:              g.M(),
		GraphMaxDegree: g.MaxDegree(),
		InitialDegree:  res.InitialDegree,
		FinalDegree:    res.FinalDegree,
		LowerBound:     DegreeLowerBound(g),
		Rounds:         res.Rounds,
		Swaps:          res.Swaps,
		SetupMessages:  setup,
		TotalMessages:  res.Total.Messages,
		TotalWords:     res.Total.Words,
		MaxWords:       res.Total.MaxWords,
		CausalDepth:    res.Improvement.CausalDepth,
	}
}

// WriteTrialSummaries encodes summaries as indented JSON — deterministic
// for equal inputs, so equal runs produce equal bytes.
func WriteTrialSummaries(w io.Writer, ts []TrialSummary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(ts)
}

// NamedGraph constructs a generator family by name — the single surface
// behind mdstrun's -graph flag, graphgen's -family flag and mdstd's
// topology config. The second result reports whether the construction
// consumed the seed: deterministic families return false, letting callers
// share one compiled snapshot across seeds. A size its generator cannot
// build is an error: n below the family's minimum, a gnm edge count m
// outside [n-1, n(n-1)/2], a ba attachment k below 1, a gnp probability
// outside [0, 1] or a hypercube above 30 dimensions. A zero m defaults to
// 3n, or to the complete graph's edge count when that is smaller.
func NamedGraph(family string, n, m int, p float64, k int, seed int64) (*Graph, bool, error) {
	f, ok := namedFamilies[family]
	if !ok {
		return nil, false, fmt.Errorf("mdegst: unknown graph family %q", family)
	}
	if n < f.minN {
		return nil, false, fmt.Errorf("mdegst: graph family %s needs n >= %d, got %d", family, f.minN, n)
	}
	switch maxM := n * (n - 1) / 2; {
	case family == "gnm" && m == 0:
		m = min(3*n, maxM)
	case family == "gnm" && (m < n-1 || m > maxM):
		return nil, false, fmt.Errorf("mdegst: gnm on %d nodes needs m in [%d, %d], got %d", n, n-1, maxM, m)
	case family == "ba" && k < 1:
		return nil, false, fmt.Errorf("mdegst: ba needs k >= 1, got %d", k)
	case family == "gnp" && !(p >= 0 && p <= 1):
		return nil, false, fmt.Errorf("mdegst: gnp needs p in [0, 1], got %v", p)
	case family == "hypercube" && hypercubeDim(n) > 30:
		return nil, false, fmt.Errorf("mdegst: a hypercube on %d nodes has more than 30 dimensions", n)
	}
	return f.build(n, m, p, k, seed), f.seeded, nil
}

// namedFamily is one family NamedGraph builds: the smallest node count
// its generator accepts, whether it consumes the seed, and the build.
type namedFamily struct {
	minN   int
	seeded bool
	build  func(n, m int, p float64, k int, seed int64) *Graph
}

// namedFamilies holds every family NamedGraph knows, and so each
// generator's minimum size, in one place.
var namedFamilies = map[string]namedFamily{
	"gnp":       {2, true, func(n, _ int, p float64, _ int, seed int64) *Graph { return Gnp(n, p, seed) }},
	"gnm":       {2, true, func(n, m int, _ float64, _ int, seed int64) *Graph { return Gnm(n, m, seed) }},
	"ba":        {2, true, func(n, _ int, _ float64, k int, seed int64) *Graph { return BarabasiAlbert(n, k, seed) }},
	"geo":       {2, true, func(n, _ int, _ float64, _ int, seed int64) *Graph { return RandomGeometric(n, 0.25, seed) }},
	"hamchords": {2, true, func(n, _ int, _ float64, k int, seed int64) *Graph { return HamiltonianPlusChords(n, k*n, seed) }},
	"wheel":     {4, false, func(n, _ int, _ float64, _ int, _ int64) *Graph { return Wheel(n) }},
	"ring":      {3, false, func(n, _ int, _ float64, _ int, _ int64) *Graph { return Ring(n) }},
	"star":      {2, false, func(n, _ int, _ float64, _ int, _ int64) *Graph { return StarGraph(n) }},
	"complete":  {1, false, func(n, _ int, _ float64, _ int, _ int64) *Graph { return Complete(n) }},
	// The largest square grid that fits in n; 2×2 is the smallest.
	"grid": {4, false, func(n, _ int, _ float64, _ int, _ int64) *Graph {
		side := 2
		for (side+1)*(side+1) <= n {
			side++
		}
		return Grid(side, side)
	}},
	// The largest hypercube that fits in n.
	"hypercube": {2, false, func(n, _ int, _ float64, _ int, _ int64) *Graph { return Hypercube(hypercubeDim(n)) }},
}

// hypercubeDim returns the dimension of the largest hypercube on at most n
// nodes (n >= 2), or 31 when that exceeds 30 dimensions.
func hypercubeDim(n int) int {
	d := 1
	for d <= 30 && 1<<(d+1) <= n {
		d++
	}
	return d
}
