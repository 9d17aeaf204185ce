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
// behind mdstrun's -graph flag and mdstd's topology config. The second
// result reports whether the construction consumed the seed: deterministic
// families return false, letting callers share one compiled snapshot
// across seeds. A zero m defaults to 3n for the families that take an
// edge budget.
func NamedGraph(family string, n, m int, p float64, k int, seed int64) (*Graph, bool, error) {
	if m == 0 {
		m = 3 * n
	}
	switch family {
	case "gnp":
		return Gnp(n, p, seed), true, nil
	case "gnm":
		return Gnm(n, m, seed), true, nil
	case "ba":
		return BarabasiAlbert(n, k, seed), true, nil
	case "geo":
		return RandomGeometric(n, 0.25, seed), true, nil
	case "wheel":
		return Wheel(n), false, nil
	case "ring":
		return Ring(n), false, nil
	case "star":
		return StarGraph(n), false, nil
	case "complete":
		return Complete(n), false, nil
	case "grid":
		side := 1
		for (side+1)*(side+1) <= n {
			side++
		}
		return Grid(side, side), false, nil
	case "hypercube":
		d := 1
		for 1<<(d+1) <= n {
			d++
		}
		return Hypercube(d), false, nil
	case "hamchords":
		return HamiltonianPlusChords(n, k*n, seed), true, nil
	default:
		return nil, false, fmt.Errorf("mdegst: unknown graph family %q", family)
	}
}
