package sim

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"mdegst/internal/graph"
)

// wrappedUnit is UnitDelay behind an extra closure, so isUnitDelay cannot
// detect it: the run takes the calendar-queue tier with every delay exactly
// one. Comparing it against the plain UnitDelay run pins the two tiers of
// EventEngine against each other.
func wrappedUnit(rng *rand.Rand, from, to NodeID) float64 { return UnitDelay(rng, from, to) }

func TestRoundEngineSelected(t *testing.T) {
	if !isUnitDelay(nil) || !isUnitDelay(UnitDelay) {
		t.Error("nil and UnitDelay must select the round engine")
	}
	if isUnitDelay(wrappedUnit) || isUnitDelay(UniformDelay(0.05)) {
		t.Error("non-UnitDelay functions must take the calendar-queue tier")
	}
}

// TestRoundEngineMatchesWheel runs the same unit-delay workload through the
// round engine (Delay: UnitDelay) and the calendar queue (wrappedUnit) and
// requires identical delivery traces — the strongest equivalence between
// EventEngine's two scheduler tiers.
func TestRoundEngineMatchesWheel(t *testing.T) {
	type step struct {
		t        float64
		depth    int64
		from, to NodeID
		kind     string
	}
	for gname, g := range map[string]*graph.Graph{
		"gnp":  graph.Gnp(24, 0.3, 42),
		"ring": graph.Ring(16),
	} {
		t.Run(gname, func(t *testing.T) {
			collect := func(d DelayFn) []step {
				var steps []step
				eng := &EventEngine{Delay: d, FIFO: true, Trace: func(ev TraceEvent) {
					steps = append(steps, step{ev.Time, ev.Depth, ev.From, ev.To, ev.Msg.Kind()})
				}}
				if _, _, err := eng.Run(g.Compile(), tokenFactory(50)); err != nil {
					t.Fatal(err)
				}
				return steps
			}
			rounds := collect(UnitDelay)
			wheel := collect(wrappedUnit)
			if !reflect.DeepEqual(rounds, wheel) {
				t.Fatalf("round engine and calendar queue diverge:\nrounds %v\nwheel  %v", rounds, wheel)
			}
		})
	}
}

// TestRoundEngineConcurrent runs many unit-delay executions over one shared
// snapshot from concurrent goroutines. Under -race (CI runs this package
// with the race detector) it proves the pooled round scratch, the shared CSR
// and the per-run reports are properly isolated.
func TestRoundEngineConcurrent(t *testing.T) {
	c := graph.Gnm(64, 192, 3).Compile()
	_, want, err := (&EventEngine{}).Run(c, tokenFactory(60))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				_, rep, err := (&EventEngine{}).Run(c, tokenFactory(60))
				if err != nil {
					errs <- err
					return
				}
				if rep.Messages != want.Messages || rep.VirtualTime != want.VirtualTime ||
					rep.CausalDepth != want.CausalDepth || rep.Words != want.Words {
					t.Errorf("concurrent run diverged: %+v vs %+v", rep, want)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRoundEngineLivelockGuard pins the round tier's abort for protocols
// stuck in one round on rings of two sizes, so the window follows the
// graph: every round from 1 on gets 16·(n+m), round 0 n times that. A ring of n
// carries 2n records per round and round r opens in the tier's round r+1,
// so each window divides into whole rounds and the tier aborts after
// exactly the window, plus the 2n·(r+1) deliveries that opened round r
// when r > 0.
func TestRoundEngineLivelockGuard(t *testing.T) {
	for _, n := range []int{4, 16} {
		for _, stuck := range []int{0, 1, 3} {
			c := graph.Ring(n).Compile()
			_, _, err := (&EventEngine{Delay: UnitDelay}).Run(c, func(NodeID, []NodeID) Protocol { return stuckAt(stuck) })
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("ring %d stuck at %d: want *BudgetError, got %v", n, stuck, err)
			}
			window := int64(16 * 2 * n)
			if stuck == 0 {
				window *= int64(n)
			}
			want := BudgetError{Messages: window, Limit: window, Rounds: stuck}
			if stuck > 0 {
				want.Messages += int64(2 * n * (stuck + 1))
			}
			if *be != want || Window(c, stuck) != window {
				t.Errorf("ring %d stuck at %d: aborted at %+v (window %d), want %+v", n, stuck, *be, Window(c, stuck), want)
			}
		}
	}
}
