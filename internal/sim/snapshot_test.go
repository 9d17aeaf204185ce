package sim

import (
	"sync"
	"testing"

	"mdegst/internal/graph"
)

// TestSharedSnapshotConcurrentRuns pins the sharing contract of the
// dense-index core: one compiled snapshot backing many simultaneous engine
// runs (the experiment harness does exactly this) must behave like private
// per-run graphs. Run under -race this also proves the CSR is read-only on
// every engine path.
func TestSharedSnapshotConcurrentRuns(t *testing.T) {
	g := graph.Gnm(64, 256, 9)
	c := g.Compile()

	want, wantRep, err := (&EventEngine{Delay: UniformDelay(0.05), FIFO: true, Seed: 5}).Run(c, tokenFactory(40))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng := &EventEngine{Delay: UniformDelay(0.05), FIFO: true, Seed: 5}
			protos, rep, err := eng.Run(c, tokenFactory(40))
			if err != nil {
				errs[w] = err
				return
			}
			if rep.Messages != wantRep.Messages || rep.VirtualTime != wantRep.VirtualTime {
				t.Errorf("worker %d: report diverged: %d msgs vs %d", w, rep.Messages, wantRep.Messages)
			}
			for v, p := range protos {
				if p.(*tokenNode).seen != want[v].(*tokenNode).seen {
					t.Errorf("worker %d: node %d state diverged", w, v)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// The async engine shares the same snapshot concurrently with the event
	// engine runs above having finished; interleave a few runs for -race.
	for i := 0; i < 3; i++ {
		if _, _, err := (&AsyncEngine{}).Run(c, tokenFactory(20)); err != nil {
			t.Fatal(err)
		}
	}
}
