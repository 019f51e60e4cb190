// Package stats provides the descriptive statistics and significance tests
// the paper's evaluation relies on: means, percentiles, variance across
// repeated days (the error bars in Figures 7, 8, 14, 19 and 24), the
// 75th/25th and median/95th percentile throughput-variability ratios from
// Sections 1–2, and the paired test on two arms' pooled rates behind
// statements such as "the hypothesis that BBA-1 and Rmin Always share the
// same distribution is not rejected at the 95% confidence level (p-value =
// 0.74)".
//
// Everything is implemented from scratch on the standard library.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrNoData is returned by functions that cannot produce a meaningful
// statistic from an empty sample.
var ErrNoData = errors.New("stats: empty sample")

// CheckFinite returns ErrNonFinite if any sample in any slice is NaN or
// ±Inf. Every sort-based statistic calls it first: sort.Float64s silently
// misorders NaN, which would corrupt quantiles without any visible failure.
func CheckFinite(xss ...[]float64) error {
	for _, xs := range xss {
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return ErrNonFinite
			}
		}
	}
	return nil
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
// Non-finite samples propagate into the result (the sum makes them visible
// as NaN/±Inf rather than a silently wrong finite number); callers that
// need rejection use CheckFinite first.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance of xs,
// or 0 when fewer than two samples are present.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs using linear
// interpolation between closest ranks. It returns ErrNoData for an empty
// sample, ErrNonFinite when xs contains NaN or ±Inf (sorting would silently
// misorder them), and does not modify xs.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrNoData
	}
	if err := CheckFinite(xs); err != nil {
		return 0, err
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p), nil
}

// PercentileSorted is Percentile of a finite sample already sorted
// ascending, for a caller reading several percentiles off one sort. It
// returns 0 for an empty sample.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) (float64, error) { return Percentile(xs, 50) }

// QuartileRatio returns the ratio of the 75th to the 25th percentile — the
// paper's definition of within-session throughput variation (footnote 1:
// the Figure 1 trace has a ratio of 5.6). It returns ErrNoData for an empty
// sample and +Inf when the 25th percentile is zero but the 75th is not.
func QuartileRatio(xs []float64) (float64, error) {
	p75, err := Percentile(xs, 75)
	if err != nil {
		return 0, err
	}
	p25, _ := Percentile(xs, 25)
	if p25 == 0 {
		if p75 == 0 {
			return 1, nil
		}
		return math.Inf(1), nil
	}
	return p75 / p25, nil
}

// MedianTo95Ratio returns median/p95, the Section 2.2 statistic: "roughly
// 10% of sessions experience a median throughput less than half of the 95th
// percentile throughput" corresponds to this ratio being below 0.5.
func MedianTo95Ratio(xs []float64) (float64, error) {
	med, err := Median(xs)
	if err != nil {
		return 0, err
	}
	p95, _ := Percentile(xs, 95)
	if p95 == 0 {
		return 1, nil
	}
	return med / p95, nil
}

// Summary bundles the descriptive statistics reported for a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64
	Min    float64
	P25    float64
	Median float64
	P75    float64
	P95    float64
	Max    float64
}

// Summarize computes a Summary of xs. It returns ErrNoData for an empty
// sample and ErrNonFinite when xs contains NaN or ±Inf.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrNoData
	}
	if err := CheckFinite(xs); err != nil {
		return Summary{}, err
	}
	s := Summary{N: len(xs), Mean: Mean(xs), StdDev: StdDev(xs)}
	s.Min, s.Max = xs[0], xs[0]
	for _, x := range xs {
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.P25, _ = Percentile(xs, 25)
	s.Median, _ = Percentile(xs, 50)
	s.P75, _ = Percentile(xs, 75)
	s.P95, _ = Percentile(xs, 95)
	return s, nil
}

// Autocorrelation returns the lag-k sample autocorrelation of xs — the
// statistic that distinguishes a scene-structured VBR chunk-size process
// (strong short-lag correlation) from independent noise. It returns
// ErrNoData when fewer than k+2 samples are available, and 0 for a
// constant series.
func Autocorrelation(xs []float64, k int) (float64, error) {
	if k < 0 || len(xs) < k+2 {
		return 0, ErrNoData
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < len(xs); i++ {
		d := xs[i] - m
		den += d * d
		if i+k < len(xs) {
			num += d * (xs[i+k] - m)
		}
	}
	if den == 0 {
		return 0, nil
	}
	return num / den, nil
}
