package main

import (
	"math/rand"
	"slices"
	"time"
)

// The benchmark's hosts are virtual machines whose speed drifts with the
// other tenants' load, by a quarter and more over tens of seconds. To keep
// that drift out of the timings, every timed step runs next to a fixed
// calibration kernel, and its time is reported in reference seconds:
//
//	normalised = wall × calRef / kernel
//
// where kernel is the mean of the kernel's median times in the blocks run
// just before and just after the step, and calRef is the kernel's median
// time on the reference host (README.md). A change to the repository
// cannot move the kernel, which is this file's own code, so it moves the
// normalised time exactly as it moves the wall time; a slower host moves
// both the step and the kernel and largely cancels.
const (
	calRef = 4.5e-3 // seconds
	// calShare: a calibration block lasts at least 1/calShare of the step
	// before it.
	calShare = 4
	// calMinReps: a calibration block runs the kernel at least this often.
	calMinReps = 3
	// calWarm is the length of the block that precedes the first step.
	calWarm = 200 * time.Millisecond
)

// calibrator holds the kernel's fixed inputs. They do not depend on the
// run's seed, so the kernel does the same work in every run.
type calibrator struct {
	base, buf []int64
	sink      int // keeps each kernel's map in use
}

func newCalibrator() *calibrator {
	rng := rand.New(rand.NewSource(1))
	c := &calibrator{base: make([]int64, 1<<15), buf: make([]int64, 1<<15)}
	for i := range c.base {
		c.base[i] = rng.Int63()
	}
	return c
}

// kernel sorts a fixed slice and fills a fresh hash map from it: branchy
// comparisons, hashing and allocation, the mix that the solves and
// set-ups spend their time on. It returns its wall time in seconds.
func (c *calibrator) kernel() float64 {
	t0 := time.Now()
	copy(c.buf, c.base)
	slices.Sort(c.buf)
	m := map[int64]int64{}
	for _, v := range c.base[:1<<14] {
		m[v>>8] += v
	}
	c.sink += len(m)
	return time.Since(t0).Seconds()
}

// block runs the kernel for at least d and at least calMinReps times and
// returns the median of its times.
func (c *calibrator) block(d time.Duration) float64 {
	var xs []float64
	start := time.Now()
	for len(xs) < calMinReps || time.Since(start) < d {
		xs = append(xs, c.kernel())
	}
	_, med, _ := quartiles(xs)
	return med
}

// meter normalises the steps of a run, which alternate with its
// calibration blocks.
type meter struct {
	cal      *calibrator
	prev     float64   // the last block's median kernel time
	kernelMs []float64 // every block's median kernel time, in ms
}

// newMeter runs the block that precedes the first step.
func newMeter() *meter {
	m := &meter{cal: newCalibrator()}
	m.prev = m.cal.block(calWarm)
	return m
}

// normalise runs the calibration block that follows a step of wall time d
// and returns the step's normalised time in seconds.
func (m *meter) normalise(d time.Duration) float64 {
	next := m.cal.block(d / calShare)
	kernel := (m.prev + next) / 2
	m.prev = next
	m.kernelMs = append(m.kernelMs, next*1e3)
	return d.Seconds() * calRef / kernel
}
