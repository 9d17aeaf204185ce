package exp

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

// A spec is an experiment decomposed for the parallel runner: a list of
// independent seeded trials — each a pure function of its construction
// parameters — plus a deterministic assembly that builds the table from
// the trial results in index order. Trials of one table share immutable
// compiled workload snapshots (see snapCache in experiments.go): a trial
// may read its snapshot and the frozen source graph concurrently with
// other workers but must never mutate either; anything a trial changes
// (trees, scratch state) has to be trial-local. Because assembly consumes
// results by index, the rendered table is bit-identical no matter how many
// workers executed the trials or in which order they finished.
type spec struct {
	id       string
	trials   []func() any
	assemble func(results []any) *Table
}

// ProgressEvent reports trial completion inside one experiment table.
type ProgressEvent struct {
	// Experiment is the table id (A1..A3, E1..E10).
	Experiment string
	// Done and Total count completed and scheduled trials of the experiment.
	Done, Total int
	// Elapsed is the wall time since the runner started.
	Elapsed time.Duration
}

// Runner executes experiment tables by fanning their independent seeded
// trials across a worker pool. Trials from all requested tables share one
// queue, so a table with a few long trials cannot idle the workers that a
// table with many short trials could use. Results are reassembled
// deterministically: the same Config produces bit-identical tables at any
// Parallel value.
type Runner struct {
	// Config scales every experiment (seeds, size factor).
	Config Config
	// Parallel is the worker count; <= 0 means GOMAXPROCS.
	Parallel int
	// Progress, when non-nil, is called after every completed trial. Calls
	// are serialised; the callback may print.
	Progress func(ProgressEvent)
}

// Workers returns the effective worker count.
func (r *Runner) Workers() int {
	if r.Parallel > 0 {
		return r.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes the named experiments (nil or empty means all, in canonical
// order) and returns their tables in request order.
func (r *Runner) Run(ids []string) ([]*Table, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	run := make([]spec, len(ids))
	for i, id := range ids {
		j := slices.IndexFunc(specs, func(e registered) bool { return e.id == id })
		if j < 0 {
			return nil, fmt.Errorf("exp: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
		}
		run[i] = specs[j].mk(r.Config)
	}
	return r.runSpecs(run)
}

// runSpecs fans the trials of the given specs over the worker pool and
// assembles their tables in spec order.
func (r *Runner) runSpecs(specs []spec) ([]*Table, error) {
	// Flatten every trial of every table into one job list.
	type job struct{ spec, trial int }
	var jobs []job
	results := make([][]any, len(specs))
	for si, s := range specs {
		results[si] = make([]any, len(s.trials))
		for ti := range s.trials {
			jobs = append(jobs, job{si, ti})
		}
	}

	var (
		start    = time.Now()
		jobCh    = make(chan job)
		wg       sync.WaitGroup
		mu       sync.Mutex // guards done counts, firstErr, Progress calls
		done     = make([]int, len(specs))
		firstErr error
	)
	worker := func() {
		defer wg.Done()
		for j := range jobCh {
			mu.Lock()
			failed := firstErr != nil
			mu.Unlock()
			if failed {
				continue // drain the queue without doing more work
			}
			err := func() (err error) {
				defer func() {
					if p := recover(); p != nil {
						err = fmt.Errorf("exp: %s trial %d: %v", specs[j.spec].id, j.trial, p)
					}
				}()
				results[j.spec][j.trial] = specs[j.spec].trials[j.trial]()
				return nil
			}()
			mu.Lock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
			} else {
				done[j.spec]++
				if r.Progress != nil {
					r.Progress(ProgressEvent{
						Experiment: specs[j.spec].id,
						Done:       done[j.spec],
						Total:      len(specs[j.spec].trials),
						Elapsed:    time.Since(start),
					})
				}
			}
			mu.Unlock()
		}
	}
	workers := r.Workers()
	if workers > len(jobs) && len(jobs) > 0 {
		workers = len(jobs)
	}
	wg.Add(workers)
	for i := 0; i < workers; i++ {
		go worker()
	}
	for _, j := range jobs {
		jobCh <- j
	}
	close(jobCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}

	tables := make([]*Table, len(specs))
	for i, s := range specs {
		tables[i] = s.assemble(results[i])
	}
	return tables, nil
}
