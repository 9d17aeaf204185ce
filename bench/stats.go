package main

import "sort"

// stat is one metric of one workload run: its unit and the median and
// quartiles of its samples within the run. A metric measured once has
// N = 1 and equal median and quartiles.
type stat struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles returns the first quartile, median and third quartile of xs by
// the exclusive method of Python's statistics.quantiles(xs, n=4), so the
// spreads printed here match the ones computed from the emitted values.
// It does not modify xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	at := func(i int) float64 {
		m := len(d) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), median(d), at(3)
}

// median of an ascending slice.
func median(d []float64) float64 {
	if len(d)%2 == 1 {
		return d[len(d)/2]
	}
	return (d[len(d)/2-1] + d[len(d)/2]) / 2
}

func sampled(unit string, xs []float64) stat {
	q1, med, q3 := quartiles(xs)
	return stat{Unit: unit, Median: med, Q1: q1, Q3: q3, N: len(xs)}
}

func single(unit string, x float64) stat {
	return stat{Unit: unit, Median: x, Q1: x, Q3: x, N: 1}
}

// spread is the interquartile distance as a share of the median.
func (s stat) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}
