package main

import (
	"errors"
	"fmt"
	"time"

	"mdegst"
)

// phases are the improvement protocol's steps as the paper names them, in
// the order a round runs them; phaseOfKind maps every mdst opcode onto one.
// bench_test.go checks the table against the registered mdst schema, so a
// new opcode cannot silently drop out of the attribution.
var phases = [...]string{"search", "move", "cut", "bfs", "choose", "control"}

var phaseOfKind = map[string]int{
	"mdst.start":     0,
	"mdst.deg":       0,
	"mdst.move":      1,
	"mdst.cut":       2,
	"mdst.bfs":       3,
	"mdst.cousin":    3,
	"mdst.bfsback":   3,
	"mdst.update":    4,
	"mdst.child":     4,
	"mdst.rounddone": 5,
	"mdst.term":      5,
}

// sampleEvery is the delivery sampling period. It is prime so that the
// periodic structure of a BFS wave (a few messages per edge, in neighbour
// order) does not alias onto one phase.
const sampleEvery = 61

// sampler counts every delivery by phase and times every sampleEvery-th
// one, from its Trace call to the next, which covers that delivery's
// handler and the engine work up to the following delivery. Reading the
// clock on every delivery would inflate the run it measures, so the
// engine span runs from the first delivery to the last sampled one, which
// is at most sampleEvery-1 deliveries short of the end.
type sampler struct {
	// trace is the tracing engine's callback.
	trace func(mdegst.TraceEvent)

	phaseOf []int8 // by opcode: phase+1, 0 not looked up yet, -1 not an mdst opcode

	n       int64
	count   [len(phases)]int64
	samples [len(phases)]int64
	sumNs   [len(phases)]int64
	unknown int64

	first, last time.Time
	pending     int // phase of the delivery being timed, -1 when none
	pendingAt   time.Time
}

// newSampler builds the per-delivery hot path, whose cost is the tracing
// overhead. It is a closure rather than a method value, which would add a
// wrapper call copying the event once more, and it reads the event only
// through fields, since the event's value-receiver methods copy it too.
func newSampler() *sampler {
	s := &sampler{pending: -1}
	s.trace = func(ev mdegst.TraceEvent) {
		op := int(ev.Msg.Op)
		if op == 0 {
			return // a Logf note, not a delivery
		}
		if op >= len(s.phaseOf) || s.phaseOf[op] == 0 {
			s.lookup(op, ev.Msg.Kind())
		}
		p := s.phaseOf[op]
		if p < 0 {
			s.unknown++
			return
		}
		s.count[p-1]++
		if s.pending >= 0 || s.n%sampleEvery == 0 {
			s.sample(int(p - 1))
		}
		s.n++
	}
	return s
}

func (s *sampler) lookup(op int, kind string) {
	for op >= len(s.phaseOf) {
		s.phaseOf = append(s.phaseOf, 0)
	}
	s.phaseOf[op] = -1
	if p, ok := phaseOfKind[kind]; ok {
		s.phaseOf[op] = int8(p + 1)
	}
}

// sample closes the pending delta, if any, and opens one on every
// sampleEvery-th delivery.
func (s *sampler) sample(p int) {
	now := time.Now()
	if s.pending >= 0 {
		s.sumNs[s.pending] += int64(now.Sub(s.pendingAt))
		s.samples[s.pending]++
		s.pending = -1
	}
	if s.n%sampleEvery == 0 {
		if s.n == 0 {
			s.first = now
		}
		s.pending, s.pendingAt = p, now
	}
	s.last = now
}

// span is the engine's busy time as the sampler saw it.
func (s *sampler) span() time.Duration { return s.last.Sub(s.first) }

// shares weighs each phase's delivery count by its mean sampled delta and
// normalises the weights to 1. Clock reads inflate every delta alike, so
// only these shares are meaningful, not the deltas themselves. A phase
// with deliveries but no sample takes the mean delta over all samples.
func (s *sampler) shares() [len(phases)]float64 {
	var allNs, allSamples int64
	for p := range phases {
		allNs += s.sumNs[p]
		allSamples += s.samples[p]
	}
	var w [len(phases)]float64
	var total float64
	for p := range phases {
		if s.count[p] == 0 {
			continue
		}
		mean := float64(allNs) / float64(max(allSamples, 1))
		if s.samples[p] > 0 {
			mean = float64(s.sumNs[p]) / float64(s.samples[p])
		}
		w[p] = float64(s.count[p]) * mean
		total += w[p]
	}
	if total > 0 {
		for p := range w {
			w[p] /= total
		}
	}
	return w
}

// traceLocal is the traced pass of one in-process solve. It makes the
// facade calls that RunCompiled and NewTrialSummary make, each on its own
// timer, checks them against the run's reference summary, then repeats the
// improvement on a tracing engine to split its engine time across phases.
func traceLocal(c *mdegst.CompiledGraph, mode mdegst.Mode, ref mdegst.TrialSummary, r *run) error {
	opts := mdegst.Options{Mode: mode}
	t0 := time.Now()
	initial, setup, err := mdegst.BuildSpanningTreeCompiled(c, mdegst.InitialFlood, opts)
	if err != nil {
		return fmt.Errorf("flood: %w", err)
	}
	t1 := time.Now()
	res, err := mdegst.ImproveCompiled(c, initial, opts)
	if err != nil {
		return fmt.Errorf("improve: %w", err)
	}
	t2 := time.Now()
	lb := mdegst.DegreeLowerBound(c.Source())
	t3 := time.Now()
	if res.FinalDegree != ref.FinalDegree || res.Rounds != ref.Rounds || res.Swaps != ref.Swaps ||
		setup.Messages+res.Improvement.Messages != ref.TotalMessages || lb != ref.LowerBound {
		return errors.New("split solve disagrees with the run's reference summary")
	}

	s := newSampler()
	topts := opts
	topts.Engine = mdegst.NewTracingEngine(s.trace)
	t4 := time.Now()
	tres, err := mdegst.ImproveCompiled(c, initial, topts)
	if err != nil {
		return fmt.Errorf("traced improve: %w", err)
	}
	traced := time.Since(t4)
	imp := res.Improvement
	if tres.FinalDegree != res.FinalDegree || tres.Swaps != res.Swaps || tres.Improvement.Messages != imp.Messages {
		return errors.New("traced improvement differs from the untraced one")
	}
	if s.unknown > 0 || s.n != imp.Messages {
		return fmt.Errorf("sampler saw %d deliveries (%d outside the phase table), the report %d", s.n+s.unknown, s.unknown, imp.Messages)
	}
	var byPhase [len(phases)]int64
	for kind, v := range imp.ByKind {
		p, ok := phaseOfKind[kind]
		if !ok {
			return fmt.Errorf("message kind %q has no phase", kind)
		}
		byPhase[p] += v
	}
	if byPhase != s.count {
		return fmt.Errorf("sampler phase counts %v, report %v", s.count, byPhase)
	}

	improve := t2.Sub(t1).Seconds()
	// Preparation and extraction run untraced in both calls, so the traced
	// call's time outside the engine span measures them; the rest of the
	// untraced call is the engine's own time.
	prep := traced.Seconds() - s.span().Seconds()
	engine := improve - prep
	rounds := imp.VirtualTime
	m := r.Metrics
	m["spanning.flood_s"] = single("s", t1.Sub(t0).Seconds())
	m["spanning.msgs"] = single("count", float64(setup.Messages))
	m["sim.improve_s"] = single("s", improve)
	m["exact.lower_bound_s"] = single("s", t3.Sub(t2).Seconds())
	m["mdst.prep_extract_s"] = single("s", prep)
	m["mdst.rounds"] = single("count", float64(res.Rounds))
	m["mdst.swaps"] = single("count", float64(res.Swaps))
	m["sim.engine_span_s"] = single("s", engine)
	m["sim.trace_overhead"] = single("x", traced.Seconds()/improve)
	m["sim.ns_per_msg"] = single("ns/msg", engine*1e9/float64(imp.Messages))
	m["sim.msgs_per_engine_round"] = single("msg/round", float64(imp.Messages)/rounds)
	m["sim.ns_per_engine_round"] = single("ns/round", engine*1e9/rounds)
	shares := s.shares()
	for p, name := range phases {
		m["mdst."+name+".msgs"] = single("count", float64(byPhase[p]))
		m["mdst."+name+".share"] = single("fraction", shares[p])
		m["mdst."+name+".s"] = single("s", shares[p]*engine)
	}
	return nil
}
