package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the q-th quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the closest ranks. xs need not be sorted; an
// empty slice gives NaN.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{0.999, 0.99, 0.9, 0.5}

// tailLevel picks the highest reportable percentile for n samples: the
// highest level with at least ten samples beyond it. So p99 needs 1000
// samples and p90 needs 100. It returns 0 when even the median lacks
// ten samples above it.
func tailLevel(n int) float64 {
	for _, q := range tailLevels {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0
}

// tailName renders a level as "p99", "p99.9", ...
func tailName(q float64) string {
	return "p" + trimFloat(q*100)
}

func trimFloat(v float64) string {
	return fmt.Sprintf("%g", math.Round(v*1000)/1000)
}

// quartiles mirrors Python's statistics.quantiles(xs, n=4) with its
// default "exclusive" method, which is how run-to-run spread is judged.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sortedCopy(xs)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2], true
}

// median is the middle value (the mean of the two middle values for an
// even count).
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// mean sums in sorted order, so equal samples in any order give a
// bit-identical mean.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return sum(sortedCopy(xs)) / float64(len(xs))
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
