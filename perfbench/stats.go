package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks, or 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(xs, n=4) (exclusive method) and statistics.median
// compute them, so spreads read the same as in any check that uses those.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	if n%2 == 1 {
		med = s[n/2]
	} else {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), med, q(3)
}

// midMean is the mean of the middle half of xs: the values left after
// dropping the lowest and the highest quarter.
func midMean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return mean(s[len(s)/4 : len(s)-len(s)/4])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total / float64(len(xs))
}

// pct is 100·a/b, or 0 when b is 0.
func pct(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * a / b
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns float64) float64 { return ns / 1e6 }
