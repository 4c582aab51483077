package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs, averaging the two middle values of an
// even-length sample; NaN for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// same "exclusive" interpolation Python's statistics.quantiles(xs, n=4)
// uses, so spreads reported here match the acceptance computation
// exactly. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2], true
}

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile applies the reporting rule for timings: the highest
// candidate percentile that still has at least ten samples above it,
// read by nearest rank. ok is false when the sample is too small for any
// candidate (fewer than 20 samples).
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	s := sorted(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		tenths := int(math.Round(p * 10)) // exact integer rank, free of float rounding
		rank := (tenths*n + 999) / 1000
		if rank < 1 {
			rank = 1
		}
		if n-rank >= 10 {
			return p, s[rank-1], true
		}
	}
	return 0, 0, false
}
