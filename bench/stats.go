package main

import (
	"math"
	"slices"
)

// quartiles returns the first quartile, median and third quartile of v
// by the exclusive method Python's statistics.quantiles(v, n=4) uses
// (the acceptance check computes spreads with it): the i-th cut sits at
// position i(n+1)/4 of the sorted sample, interpolated between its two
// neighbours (extrapolated at the ends of a tiny sample, as Python
// does). One sample is its own quartiles.
func quartiles(v []float64) (q1, med, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := float64(i*(n+1)-4*j) / 4
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise figure a bound is judged against.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// geomean returns the geometric mean of positive values (0 for none).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(v)))
}

// summary is how every sampled quantity is reported: the median with
// its quartiles and the sample count. With fewer than twenty samples no
// tail percentile has ten samples beyond it, so none is reported.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	N      int     `json:"n"`
}

func summarize(unit string, v []float64) summary {
	q1, m, q3 := quartiles(v)
	s := summary{Unit: unit, Median: m, Q1: q1, Q3: q3, N: len(v)}
	if len(v) > 0 {
		s.Min = slices.Min(v)
	}
	return s
}
