package exp

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"mdegst/internal/alloctest"
)

// TestRunnerDeterminism is the acceptance test of the parallel harness:
// every experiment table rendered at one worker must be byte-identical to
// the same table rendered at eight workers. Run with -race to also exercise the worker pool for data races.
func TestRunnerDeterminism(t *testing.T) {
	cfg := Quick()
	render := func(tables []*Table) string {
		var b strings.Builder
		for _, tbl := range tables {
			tbl.Fprint(&b)
		}
		return b.String()
	}

	r1 := &Runner{Config: cfg, Parallel: 1}
	t1, err := r1.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	r8 := &Runner{Config: cfg, Parallel: 8}
	t8, err := r8.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := render(t8), render(t1); got != want {
		t.Errorf("tables differ between parallel=8 and parallel=1:\n--- parallel=1\n%s\n--- parallel=8\n%s", want, got)
	}
}

// TestRunnerJSONDeterminism: the machine-readable encoding must also be
// bit-identical across worker counts.
func TestRunnerJSONDeterminism(t *testing.T) {
	cfg := Quick()
	encode := func(parallel int) []byte {
		tables, err := (&Runner{Config: cfg, Parallel: parallel}).Run([]string{"E5", "E6"})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := NewResultSet(cfg, tables).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if a, b := encode(1), encode(8); !bytes.Equal(a, b) {
		t.Errorf("JSON differs between worker counts:\n%s\nvs\n%s", a, b)
	}
}

func TestRunnerSubsetAndOrder(t *testing.T) {
	tables, err := (&Runner{Config: Quick(), Parallel: 4}).Run([]string{"E6", "E5"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 || tables[0].ID != "E6" || tables[1].ID != "E5" {
		ids := make([]string, len(tables))
		for i, tbl := range tables {
			ids[i] = tbl.ID
		}
		t.Errorf("tables = %v, want [E6 E5]", ids)
	}
}

func TestRunnerUnknownExperiment(t *testing.T) {
	if _, err := (&Runner{Config: Quick()}).Run([]string{"E99"}); err == nil {
		t.Error("want error for unknown experiment id")
	}
}

func TestRunnerProgress(t *testing.T) {
	var mu sync.Mutex
	last := map[string]ProgressEvent{}
	events := 0
	r := &Runner{Config: Quick(), Parallel: 4, Progress: func(ev ProgressEvent) {
		mu.Lock()
		defer mu.Unlock()
		events++
		if prev, ok := last[ev.Experiment]; ok {
			if ev.Done != prev.Done+1 {
				t.Errorf("%s: done jumped %d -> %d", ev.Experiment, prev.Done, ev.Done)
			}
			if ev.Total != prev.Total {
				t.Errorf("%s: total changed %d -> %d", ev.Experiment, prev.Total, ev.Total)
			}
		} else if ev.Done != 1 {
			t.Errorf("%s: first event has done=%d", ev.Experiment, ev.Done)
		}
		last[ev.Experiment] = ev
	}}
	tables, err := r.Run([]string{"E5", "E8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 2 {
		t.Fatalf("got %d tables", len(tables))
	}
	total := 0
	for id, ev := range last {
		if ev.Done != ev.Total {
			t.Errorf("%s finished at %d/%d", id, ev.Done, ev.Total)
		}
		total += ev.Total
	}
	if events != total {
		t.Errorf("saw %d progress events, want %d", events, total)
	}
}

// TestRunnerTrialPanic: a panicking trial must surface as an error naming
// the experiment, not crash the pool or hang.
func TestRunnerTrialPanic(t *testing.T) {
	s := spec{
		id:     "boom",
		trials: []func() any{func() any { panic("kaboom") }},
	}
	r := &Runner{Config: Quick(), Parallel: 2}
	_, err := r.runSpecs([]spec{s})
	if err == nil || !strings.Contains(err.Error(), "boom") || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("want panic converted to error naming the spec, got %v", err)
	}
}

func TestRunnerWorkers(t *testing.T) {
	if (&Runner{}).Workers() <= 0 {
		t.Error("default workers must be positive")
	}
	if got := (&Runner{Parallel: 3}).Workers(); got != 3 {
		t.Errorf("Workers() = %d, want 3", got)
	}
}

// TestHarnessAllocBudget holds a fixed-seed quick sweep through the
// sequential runner to a recorded whole-process allocation budget
// (alloctest's rule).
func TestHarnessAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ids    []string
		budget float64
	}{
		{"E1,E3,E5-quick/parallel=1", []string{"E1", "E3", "E5"}, 7009},
	} {
		t.Run(tc.name, func(t *testing.T) {
			alloctest.Check(t, 5, tc.budget, func() {
				r := &Runner{Config: Config{Seeds: 2, Scale: 0.25}, Parallel: 1}
				if _, err := r.Run(tc.ids); err != nil {
					t.Fatal(err)
				}
			})
		})
	}
}
