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

// TestRoundEngineLivelockGuard pins the MaxMessages abort on the round tier
// (the generic guard test runs under UnitDelay too, but this one fixes the
// exact path after tier selection).
func TestRoundEngineLivelockGuard(t *testing.T) {
	g := graph.Ring(4)
	_, _, err := (&EventEngine{Delay: UnitDelay, MaxMessages: 500}).Run(g.Compile(), func(NodeID, []NodeID) Protocol { return chainReaction{} })
	var be *BudgetError
	if !errors.As(err, &be) || be.Messages != 500 || be.Limit != 500 {
		t.Fatalf("want a budget abort at 500 messages, got %v", err)
	}
	// Rounds 0..61 carry 496 deliveries; the budget's last 4 are round 62's.
	if be.Rounds != 62 {
		t.Fatalf("budget abort names round %d, want 62", be.Rounds)
	}
}
