package main

import (
	"math"
	"sort"
)

// cutPoint returns the i-th of the n-1 cut points dividing xs into n
// groups, by the "exclusive" method of Python's statistics.quantiles,
// so spreads printed here match the ones computed from the run values.
func cutPoint(xs []float64, i, n int) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	switch ld {
	case 0:
		return math.NaN()
	case 1:
		return d[0]
	}
	m := ld + 1
	j := i * m / n
	if j < 1 {
		j = 1
	} else if j > ld-1 {
		j = ld - 1
	}
	delta := float64(i*m - j*n)
	return (d[j-1]*(float64(n)-delta) + d[j]*delta) / float64(n)
}

func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch n := len(d); {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// summary is one metric's distribution over the samples of a run.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	return summary{Median: median(xs), Q1: cutPoint(xs, 1, 4), Q3: cutPoint(xs, 3, 4), N: len(xs)}
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}
