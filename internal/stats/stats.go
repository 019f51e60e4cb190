// Package stats provides the descriptive statistics and significance tests
// the paper's evaluation relies on: means, percentiles, variance across
// repeated days (the error bars in Figures 7, 8, 14, 19 and 24), the
// 75th/25th and median/95th percentile throughput-variability ratios from
// Sections 1–2, and the two-sample significance tests behind statements such
// as "the hypothesis that BBA-1 and Rmin Always share the same distribution
// is not rejected at the 95% confidence level (p-value = 0.74)".
//
// Everything is implemented from scratch on the standard library; the only
// nontrivial piece is the regularized incomplete beta function used for the
// Student-t CDF.
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

// DropNonFinite returns xs with NaN/±Inf samples removed, and how many were
// dropped. It never modifies xs; when nothing is dropped it returns xs
// itself.
func DropNonFinite(xs []float64) ([]float64, int) {
	dropped := 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			dropped++
		}
	}
	if dropped == 0 {
		return xs, 0
	}
	kept := make([]float64, 0, len(xs)-dropped)
	for _, x := range xs {
		if !math.IsNaN(x) && !math.IsInf(x, 0) {
			kept = append(kept, x)
		}
	}
	return kept, dropped
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
// Non-finite samples propagate into the result (the sum makes them visible
// as NaN/±Inf rather than a silently wrong finite number); callers that
// need rejection use CheckFinite or DropNonFinite first.
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

// PairedRatioCI returns the delta-method confidence interval, at level
// conf, for the ratio mean(t)/mean(c) of two arms measured on the same
// draws — the statistic behind the paper's "reduce the rebuffer rate by
// 10–20%" claims. t and c hold each arm's values over the paired draws and
// d their per-draw differences t−c; the arms' covariance comes from the
// three variances, (s_t² + s_c² − s_d²)/2, so no sample is retained:
//
//	Var(r) ≈ (s_t² − 2r·cov + r²·s_c²) / (n·mean(c)²),  r = mean(t)/mean(c)
//
// and the interval is r ± z·√Var(r), z the two-sided normal quantile of
// conf. It needs two draws or more, counted alike in all three
// accumulators (ErrNoData otherwise), and a non-zero control mean.
func PairedRatioCI(t, c, d Welford, conf float64) (lo, hi float64, err error) {
	n := t.N
	if n < 2 || c.N != n || d.N != n {
		return 0, 0, ErrNoData
	}
	if c.Mean == 0 {
		return 0, 0, errors.New("stats: control mean is zero")
	}
	r := t.Mean / c.Mean
	vt, vc := t.Variance(), c.Variance()
	cov := (vt + vc - d.Variance()) / 2
	v := (vt - 2*r*cov + r*r*vc) / (float64(n) * c.Mean * c.Mean)
	half := math.Sqrt2 * math.Erfinv(conf) * math.Sqrt(max(v, 0))
	return r - half, r + half, nil
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

// TTestResult reports a two-sample Welch t-test.
type TTestResult struct {
	T  float64 // test statistic
	DF float64 // Welch–Satterthwaite degrees of freedom
	P  float64 // two-sided p-value
}

// WelchTTest performs a two-sided Welch two-sample t-test of the null
// hypothesis that the samples folded into x and y have equal means. This is
// the test behind the paper's footnotes 4 and 5 (p-values 0.25 and 0.74 for
// BBA-0/BBA-1 versus Rmin Always off-peak); it needs only each sample's
// count, mean and variance. Each sample needs at least two observations; an
// accumulator whose moments are not finite is rejected with ErrNonFinite
// rather than yielding a NaN statistic.
func WelchTTest(x, y Welford) (TTestResult, error) {
	if x.N < 2 || y.N < 2 {
		return TTestResult{}, ErrNoData
	}
	if err := CheckFinite([]float64{x.Mean, x.M2, y.Mean, y.M2}); err != nil {
		return TTestResult{}, err
	}
	mx, my := x.Mean, y.Mean
	vx, vy := x.Variance(), y.Variance()
	nx, ny := float64(x.N), float64(y.N)
	se2 := vx/nx + vy/ny
	if se2 == 0 {
		// Identical constant samples: no evidence against the null.
		if mx == my {
			return TTestResult{T: 0, DF: nx + ny - 2, P: 1}, nil
		}
		return TTestResult{T: math.Inf(1), DF: nx + ny - 2, P: 0}, nil
	}
	t := (mx - my) / math.Sqrt(se2)
	df := se2 * se2 / ((vx*vx)/(nx*nx*(nx-1)) + (vy*vy)/(ny*ny*(ny-1)))
	p := 2 * studentTTail(math.Abs(t), df)
	if p > 1 {
		p = 1
	}
	return TTestResult{T: t, DF: df, P: p}, nil
}

// studentTTail returns P(T > t) for T ~ Student-t with df degrees of
// freedom, t ≥ 0.
func studentTTail(t, df float64) float64 {
	if math.IsInf(t, 1) {
		return 0
	}
	x := df / (df + t*t)
	return 0.5 * regIncBeta(df/2, 0.5, x)
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes §6.4 form).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a) + lgamma(b) - lgamma(a+b)
	logTerm := a*math.Log(x) + b*math.Log(1-x) - lbeta
	if x < (a+1)/(a+b+2) {
		return math.Exp(logTerm) / a * betaCF(a, b, x)
	}
	// Use the symmetry relation I_x(a,b) = 1 − I_{1−x}(b,a) for convergence.
	return 1 - math.Exp(logTerm)/b*betaCF(b, a, 1-x)
}

// betaCF evaluates the continued fraction for the incomplete beta function
// by the modified Lentz method.
func betaCF(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 1e-14
		tiny    = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < tiny {
		d = tiny
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < tiny {
			d = tiny
		}
		c = 1 + aa/c
		if math.Abs(c) < tiny {
			c = tiny
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}
