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

// percentile is the exact nearest-rank percentile of an ascending sample:
// the smallest value with at least p percent of the samples at or below it.
// Raw samples are kept in memory and sorted; nothing here is a sketch.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[rankOf(len(asc), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples: ⌈p/100·n⌉, within [1, n]. The epsilon keeps a product that is a
// whole number in exact arithmetic (99.99 % of 100 000) from rounding up.
func rankOf(n int, p float64) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75}

// tailPercentile picks the highest candidate percentile that still has at
// least ten samples beyond it, so the reported tail is never one outlier.
// With fewer than 40 samples no candidate qualifies and ok is false.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailPercentiles {
		if n-rankOf(n, c) >= 10 {
			return c, true
		}
	}
	return 0, false
}

// median of xs (mean of the two middle values for an even count).
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does, so
// spreads computed here match the ones the acceptance check computes.
// It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		return math.NaN(), math.NaN()
	}
	cut := func(i int) float64 {
		const n = 4
		m := ld + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return cut(1), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// best is what the benchmark reports for a timing measured over many short
// windows: the best decile — the 90th percentile window when higher is
// better, the 10th when lower is. The sandbox's neighbours only ever slow a
// window down (README, "Steadiness": the same code runs in two modes 45 %
// apart, switching every few seconds), so the median window says which
// mode the run happened to sit in, while the best decile says what the
// code does when the machine is its own. With fewer than ten windows it is
// the best window.
func best(xs []float64, higher bool) float64 {
	if higher {
		return percentile(sorted(xs), 90)
	}
	return percentile(sorted(xs), 10)
}
