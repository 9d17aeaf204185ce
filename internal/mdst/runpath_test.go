package mdst_test

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"io"
	"slices"
	"testing"

	"mdegst/internal/graph"
	"mdegst/internal/mdst"
	"mdegst/internal/sim"
	"mdegst/internal/spanning"
	"mdegst/internal/tree"
)

// runPathDigests pins every deterministic output of the engine run path —
// trees, reports, per-(kind, round) and per-sender counters — for the
// spanning builds and the flood→Hybrid pipeline on each engine tier. Any
// change to how engines hand back states or how results are assembled
// must leave these bytes alone.
var runPathDigests = map[string]string{
	"ba48/event-random/dfs":             "e5fa165900c9778db7a6183b452df9bfdad52c4d76889e42a1ecb35cc59ed6bd",
	"ba48/event-random/election":        "913215afa2ae3c87b6093832ae0729e5932e72a28a310845e0ea550c903d6f9b",
	"ba48/event-random/flood-hybrid":    "78564c497821c0d1c03aa2ad5a2b0ee5d4d34d2c281dc4232ee459ae81c3c699",
	"ba48/event-random/ghs":             "259a111b8a714fb58c451eeed53181448c75d864a6f222fe9d2c132e8954ea6c",
	"ba48/event-unit/dfs":               "e3bf86f2c89da905cc647e5764006a5c1ff4976277ebfe612c04efab231c4f4b",
	"ba48/event-unit/election":          "ae40ccdf28671352f6fb4d872ebac719c37fd69220edcda725c135e9c3dcd91e",
	"ba48/event-unit/flood-hybrid":      "5a6853ce0d668d24c7f7e2ada97c651565362f8b8de32a143ecc03ccad4c1d1e",
	"ba48/event-unit/ghs":               "942b4190ef4f93044fa737d32d832855d6ea4a06a09918092988151704261c64",
	"ba48/reference/dfs":                "e3bf86f2c89da905cc647e5764006a5c1ff4976277ebfe612c04efab231c4f4b",
	"ba48/reference/election":           "ae40ccdf28671352f6fb4d872ebac719c37fd69220edcda725c135e9c3dcd91e",
	"ba48/reference/flood-hybrid":       "5a6853ce0d668d24c7f7e2ada97c651565362f8b8de32a143ecc03ccad4c1d1e",
	"ba48/reference/ghs":                "942b4190ef4f93044fa737d32d832855d6ea4a06a09918092988151704261c64",
	"gnm48/event-random/dfs":            "6064f5f92aba0753f6859fa37640d8ee6875c7cdb7537c87850c28e8f857f009",
	"gnm48/event-random/election":       "c9f8dfce21c99120d66d8df7fda04bb047248a2c76779c9baa65fd651c6ba24d",
	"gnm48/event-random/flood-hybrid":   "8cd0a8297cd760c5920feea43c3b83ac42f8ced3d012497766492a77f3c35337",
	"gnm48/event-random/ghs":            "dc927644ed402509360e0748c71773a9b78a754060ebd08a41b0e4b968036bf3",
	"gnm48/event-unit/dfs":              "6c6a9474e8557374816b4c0d7b429a5bb7f147e034a691a197f96a657d54f682",
	"gnm48/event-unit/election":         "f457da1ab72663259795c33ad94f3a222a76599ffd30f02a3ce01ac73159b7b8",
	"gnm48/event-unit/flood-hybrid":     "bb3f0d24b78bd7f3a051e150988dead5b86c729f46ae53ba1e119f6c064d5040",
	"gnm48/event-unit/ghs":              "dbff6a97fef9df23ebedf2f23cbe4967411cf7cdf2dc2586cf0dde964435970b",
	"gnm48/reference/dfs":               "6c6a9474e8557374816b4c0d7b429a5bb7f147e034a691a197f96a657d54f682",
	"gnm48/reference/election":          "f457da1ab72663259795c33ad94f3a222a76599ffd30f02a3ce01ac73159b7b8",
	"gnm48/reference/flood-hybrid":      "bb3f0d24b78bd7f3a051e150988dead5b86c729f46ae53ba1e119f6c064d5040",
	"gnm48/reference/ghs":               "dbff6a97fef9df23ebedf2f23cbe4967411cf7cdf2dc2586cf0dde964435970b",
	"grid6x8/event-random/dfs":          "65f372fb00b26a456189f3577ae68c150f760e0d961e0c19aa3fad4f19d4b3d9",
	"grid6x8/event-random/election":     "0c48cc176aaf88d5d647541ca35d5e5c4037ce98de6bf2c9a1d4c76b50768542",
	"grid6x8/event-random/flood-hybrid": "54d87ef8932b73b0dcff0146fc8752d8aac1177c5c7ad916fb9b88bbaf80bfd5",
	"grid6x8/event-random/ghs":          "43f75c5b044c1ac5e4c7104c662c185b95a3c59e28ac18d0fdec21df75f37a4e",
	"grid6x8/event-unit/dfs":            "660d157cfe2364901805eb16e96aa1675ba4e0689c7de6e261e2aa889376d287",
	"grid6x8/event-unit/election":       "66a47ae10c1b8a72f310c724aa2435294d2844b15b29a101ab791ee596c0ab75",
	"grid6x8/event-unit/flood-hybrid":   "d39d1e42204ed65adda6540348137a67af90566a4848653f10bc95bd52675d3c",
	"grid6x8/event-unit/ghs":            "e5a9c50082706da2a4cf4aeaa70ee8ddc1978b171cb673cc09adf1cfd7c67b6b",
	"grid6x8/reference/dfs":             "660d157cfe2364901805eb16e96aa1675ba4e0689c7de6e261e2aa889376d287",
	"grid6x8/reference/election":        "66a47ae10c1b8a72f310c724aa2435294d2844b15b29a101ab791ee596c0ab75",
	"grid6x8/reference/flood-hybrid":    "d39d1e42204ed65adda6540348137a67af90566a4848653f10bc95bd52675d3c",
	"grid6x8/reference/ghs":             "e5a9c50082706da2a4cf4aeaa70ee8ddc1978b171cb673cc09adf1cfd7c67b6b",
}

// digestReport writes the deterministic parts of a report: its rendering
// plus the sorted ByKindRound and SentBy breakdowns.
func digestReport(h hash.Hash, r *sim.Report) {
	io.WriteString(h, r.String())
	kr := make([]string, 0, len(r.ByKindRound))
	for k, v := range r.ByKindRound {
		kr = append(kr, fmt.Sprintf("%s=%d", k, v))
	}
	slices.Sort(kr)
	for _, s := range kr {
		fmt.Fprintln(h, s)
	}
	ids := make([]sim.NodeID, 0, len(r.SentBy))
	for id := range r.SentBy {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fmt.Fprintf(h, "%d:%d\n", id, r.SentBy[id])
	}
}

func digestTree(h hash.Hash, t *tree.Tree) { io.WriteString(h, t.String()) }

// TestRunPathPinned runs flood→mdst Hybrid and the DFS, GHS and election
// builds over three graph families on every deterministic engine tier and
// compares a SHA-256 of all outputs against the pinned table.
func TestRunPathPinned(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnm48", graph.Gnm(48, 144, 1)},
		{"ba48", graph.BarabasiAlbert(48, 2, 1)},
		{"grid6x8", graph.Grid(6, 8)},
	}
	engines := []struct {
		name string
		mk   func() sim.Engine
	}{
		{"event-unit", func() sim.Engine { return &sim.EventEngine{Delay: sim.UnitDelay} }},
		{"event-random", func() sim.Engine { return &sim.EventEngine{Delay: sim.UniformDelay(0.2), Seed: 7, FIFO: true} }},
		{"reference", func() sim.Engine { return &sim.ReferenceEngine{} }},
	}
	for _, gc := range graphs {
		c := gc.g.Compile()
		root := c.Index().ID(0)
		protocols := []struct {
			name string
			run  func(eng sim.Engine, h hash.Hash) error
		}{
			{"flood-hybrid", func(eng sim.Engine, h hash.Hash) error {
				t0, rep, err := spanning.Build(eng, c, spanning.NewFloodFactory(c, root))
				if err != nil {
					return err
				}
				digestTree(h, t0.ToTree())
				digestReport(h, rep)
				res, err := mdst.Run(eng, c, t0, mdst.Hybrid, 0)
				if err != nil {
					return err
				}
				digestTree(h, res.Tree)
				digestReport(h, res.Report)
				fmt.Fprintf(h, "rounds=%d swaps=%d k=%d k*=%d\n", res.Rounds, res.Swaps, res.InitialDegree, res.FinalDegree)
				return nil
			}},
			{"dfs", buildDigest(c, spanning.NewDFSFactory(root))},
			{"ghs", buildDigest(c, spanning.NewGHSFactory())},
			{"election", buildDigest(c, spanning.NewElectionFactory())},
		}
		for _, ec := range engines {
			for _, pc := range protocols {
				name := gc.name + "/" + ec.name + "/" + pc.name
				t.Run(name, func(t *testing.T) {
					h := sha256.New()
					if err := pc.run(ec.mk(), h); err != nil {
						t.Fatal(err)
					}
					if got, want := fmt.Sprintf("%x", h.Sum(nil)), runPathDigests[name]; got != want {
						t.Errorf("digest %s, pinned %s", got, want)
					}
				})
			}
		}
	}
}

func buildDigest(c *graph.CSR, f sim.Factory) func(sim.Engine, hash.Hash) error {
	return func(eng sim.Engine, h hash.Hash) error {
		tr, rep, err := spanning.Build(eng, c, f)
		if err != nil {
			return err
		}
		digestTree(h, tr.ToTree())
		digestReport(h, rep)
		return nil
	}
}
