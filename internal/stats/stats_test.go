package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if v := Variance(xs); !almost(v, 32.0/7.0, 1e-12) {
		t.Errorf("variance = %v, want %v", v, 32.0/7.0)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate samples should report 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 15}, {100, 50}, {50, 35}, {25, 20}, {75, 40}, {-5, 15}, {110, 50},
	}
	for _, c := range cases {
		got, err := Percentile(xs, c.p)
		if err != nil {
			t.Fatal(err)
		}
		if !almost(got, c.want, 1e-12) {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if _, err := Percentile(nil, 50); err != ErrNoData {
		t.Errorf("empty sample: err = %v, want ErrNoData", err)
	}
	if got, _ := Percentile([]float64{7}, 90); got != 7 {
		t.Errorf("single sample P90 = %v", got)
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Percentile(xs, 50); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input mutated: %v", xs)
	}
}

func TestQuartileRatio(t *testing.T) {
	// A sample engineered to have p25=2 and p75=11.2 → ratio 5.6, the
	// paper's Figure 1 value.
	xs := []float64{1, 2, 2, 2, 11.2, 11.2, 11.2, 17}
	r, err := QuartileRatio(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 5.6, 0.01) {
		t.Errorf("quartile ratio = %v, want 5.6", r)
	}
	if r, _ := QuartileRatio([]float64{0, 0, 0, 1}); !math.IsInf(r, 1) {
		t.Errorf("zero p25 should be +Inf, got %v", r)
	}
	if r, _ := QuartileRatio([]float64{0, 0, 0, 0}); r != 1 {
		t.Errorf("all-zero ratio = %v, want 1", r)
	}
	if _, err := QuartileRatio(nil); err != ErrNoData {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestMedianTo95Ratio(t *testing.T) {
	// Median 2, p95 close to 10 → ratio well under 0.5 (a "highly
	// variable" session in the paper's Section 2.2 sense).
	xs := []float64{1, 2, 2, 2, 2, 3, 10, 10, 10, 10}
	r, err := MedianTo95Ratio(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 0.5 {
		t.Errorf("ratio = %v, want < 0.5", r)
	}
	if r, _ := MedianTo95Ratio([]float64{0, 0}); r != 1 {
		t.Errorf("all-zero ratio = %v, want 1", r)
	}
}

func TestSummarize(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	s, err := Summarize(xs)
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.Median != 3 {
		t.Errorf("summary = %+v", s)
	}
	if _, err := Summarize(nil); err != ErrNoData {
		t.Errorf("want ErrNoData, got %v", err)
	}
}

func TestWelchTTestEqualSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64()
	}
	res, err := WelchTTest(welford(t, xs), welford(t, ys))
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Errorf("same-distribution samples rejected: p = %v", res.P)
	}
}

func TestWelchTTestDifferentMeans(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = rng.NormFloat64() + 1.0
	}
	res, err := WelchTTest(welford(t, xs), welford(t, ys))
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 1e-6 {
		t.Errorf("clearly different means not detected: p = %v", res.P)
	}
	if res.T >= 0 {
		t.Errorf("t should be negative (mean(xs) < mean(ys)), got %v", res.T)
	}
}

func TestWelchTTestKnownValue(t *testing.T) {
	// Classic example (from Welch's original domain): verify against a
	// hand-computed value. xs mean 3, ys mean 5.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{3, 4, 5, 6, 7}
	res, err := WelchTTest(welford(t, xs), welford(t, ys))
	if err != nil {
		t.Fatal(err)
	}
	if !almost(res.T, -2, 1e-9) {
		t.Errorf("t = %v, want -2", res.T)
	}
	if !almost(res.DF, 8, 1e-9) {
		t.Errorf("df = %v, want 8", res.DF)
	}
	// Two-sided p for t=2, df=8 is 0.0805 (standard tables).
	if !almost(res.P, 0.0805, 0.001) {
		t.Errorf("p = %v, want ~0.0805", res.P)
	}
}

func TestWelchTTestDegenerate(t *testing.T) {
	if _, err := WelchTTest(welford(t, []float64{1}), welford(t, []float64{1, 2})); err != ErrNoData {
		t.Errorf("want ErrNoData, got %v", err)
	}
	res, err := WelchTTest(welford(t, []float64{2, 2, 2}), welford(t, []float64{2, 2, 2}))
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 {
		t.Errorf("identical constant samples: p = %v, want 1", res.P)
	}
	res, err = WelchTTest(welford(t, []float64{2, 2, 2}), welford(t, []float64{3, 3, 3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 0 {
		t.Errorf("different constant samples: p = %v, want 0", res.P)
	}
}

func TestStudentTTailAgainstTables(t *testing.T) {
	// Standard t-table checkpoints: P(T > t) one-sided.
	cases := []struct {
		t, df, want float64
	}{
		{1.812, 10, 0.05},
		{2.228, 10, 0.025},
		{1.645, 1e6, 0.05}, // approaches the normal distribution
		{0, 5, 0.5},
	}
	for _, c := range cases {
		got := studentTTail(c.t, c.df)
		if !almost(got, c.want, 0.002) {
			t.Errorf("tail(t=%v, df=%v) = %v, want %v", c.t, c.df, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if regIncBeta(2, 3, 0) != 0 || regIncBeta(2, 3, 1) != 1 {
		t.Error("boundary values wrong")
	}
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.42, 0.9} {
		if got := regIncBeta(1, 1, x); !almost(got, x, 1e-10) {
			t.Errorf("I_%v(1,1) = %v", x, got)
		}
	}
	// Symmetry: I_x(a,b) = 1 − I_{1−x}(b,a).
	if got := regIncBeta(2.5, 4, 0.3) + regIncBeta(4, 2.5, 0.7); !almost(got, 1, 1e-10) {
		t.Errorf("symmetry violated: sum = %v", got)
	}
}

// Percentiles are monotone in p, and bounded by the sample extremes.
func TestQuickPercentileMonotone(t *testing.T) {
	f := func(raw []float64, p1, p2 uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		a, b := float64(p1%101), float64(p2%101)
		if a > b {
			a, b = b, a
		}
		va, _ := Percentile(xs, a)
		vb, _ := Percentile(xs, b)
		mn, _ := Percentile(xs, 0)
		mx, _ := Percentile(xs, 100)
		return va <= vb && va >= mn && vb <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// The Welch p-value is always a valid probability.
func TestQuickWelchPValueRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n1, n2 uint8, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		nx := int(n1%50) + 2
		ny := int(n2%50) + 2
		xs := make([]float64, nx)
		ys := make([]float64, ny)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		for i := range ys {
			ys[i] = rng.NormFloat64() + math.Mod(shift, 10)
		}
		res, err := WelchTTest(welford(t, xs), welford(t, ys))
		if err != nil {
			return false
		}
		return res.P >= 0 && res.P <= 1 && !math.IsNaN(res.P)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestAutocorrelation(t *testing.T) {
	// Lag 0 is always 1 for a non-constant series.
	xs := []float64{1, 2, 3, 4, 5, 4, 3, 2}
	if r, err := Autocorrelation(xs, 0); err != nil || !almost(r, 1, 1e-12) {
		t.Errorf("lag-0 = %v, %v", r, err)
	}
	// A slowly varying series has strong positive lag-1 correlation.
	smooth := make([]float64, 200)
	for i := range smooth {
		smooth[i] = math.Sin(float64(i) / 20)
	}
	r1, err := Autocorrelation(smooth, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r1 < 0.9 {
		t.Errorf("smooth series lag-1 = %v, want ≥0.9", r1)
	}
	// Alternating series: strong negative lag-1 correlation.
	alt := make([]float64, 100)
	for i := range alt {
		alt[i] = float64(i % 2)
	}
	rAlt, _ := Autocorrelation(alt, 1)
	if rAlt > -0.9 {
		t.Errorf("alternating series lag-1 = %v, want ≤ -0.9", rAlt)
	}
	// Degenerate inputs.
	if _, err := Autocorrelation([]float64{1, 2}, 5); err != ErrNoData {
		t.Errorf("short sample err = %v", err)
	}
	if _, err := Autocorrelation(nil, 0); err != ErrNoData {
		t.Errorf("nil sample err = %v", err)
	}
	if r, err := Autocorrelation([]float64{3, 3, 3, 3}, 1); err != nil || r != 0 {
		t.Errorf("constant series = %v, %v", r, err)
	}
}

// The VBR scene model's defining property, verified through the public
// statistic: chunk sizes are strongly correlated at short lags (within a
// scene) and decorrelate over long lags (across sequences).
func TestAutocorrelationMatchesSceneModelIntent(t *testing.T) {
	// Synthetic scene-like series: blocks of 8 identical values.
	xs := make([]float64, 400)
	rng := rand.New(rand.NewSource(6))
	v := rng.Float64()
	for i := range xs {
		if i%8 == 0 {
			v = rng.Float64()
		}
		xs[i] = v
	}
	short, _ := Autocorrelation(xs, 1)
	long, _ := Autocorrelation(xs, 100)
	if short < 0.7 {
		t.Errorf("within-scene lag-1 = %v, want high", short)
	}
	if math.Abs(long) > 0.3 {
		t.Errorf("cross-sequence lag-100 = %v, want near 0", long)
	}
}

// TestPairedRatioCIKnownValue holds the delta-method interval to a value
// worked by hand on five paired draws:
//
//	t = 1 3 2 5 4    mean 3, s² = 10/4 = 2.5
//	c = 2 4 6 8 10   mean 6, s² = 40/4 = 10
//	d = t−c          mean −3, s² = 18/4 = 4.5
//
// cov = (2.5 + 10 − 4.5)/2 = 4 (directly: (8 + 0 + 0 + 4 + 4)/4), r = 0.5,
// Var(r) = (2.5 − 2·0.5·4 + 0.25·10)/(5·36) = 1/180, and at 90% the
// interval is 0.5 ± 1.6448536269514722/√180 = [0.37740, 0.62260].
func TestPairedRatioCIKnownValue(t *testing.T) {
	tv := []float64{1, 3, 2, 5, 4}
	cv := []float64{2, 4, 6, 8, 10}
	dv := make([]float64, len(tv))
	for i := range tv {
		dv[i] = tv[i] - cv[i]
	}
	lo, hi, err := PairedRatioCI(welford(t, tv), welford(t, cv), welford(t, dv), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	half := 1.6448536269514722 / math.Sqrt(180)
	if !almost(lo, 0.5-half, 1e-12) || !almost(hi, 0.5+half, 1e-12) {
		t.Errorf("CI = [%.15f, %.15f], want [%.15f, %.15f]", lo, hi, 0.5-half, 0.5+half)
	}
	if !almost(lo, 0.37740, 1e-5) || !almost(hi, 0.62260, 1e-5) {
		t.Errorf("CI = [%.5f, %.5f], want [0.37740, 0.62260]", lo, hi)
	}
}

func TestPairedRatioCIDegenerate(t *testing.T) {
	one := welford(t, []float64{1})
	if _, _, err := PairedRatioCI(one, one, one, 0.9); err != ErrNoData {
		t.Errorf("one draw: %v, want ErrNoData", err)
	}
	two, three := welford(t, []float64{1, 2}), welford(t, []float64{1, 2, 3})
	if _, _, err := PairedRatioCI(two, three, two, 0.9); err != ErrNoData {
		t.Errorf("unpaired counts: %v, want ErrNoData", err)
	}
	zero := welford(t, []float64{0, 0})
	if _, _, err := PairedRatioCI(two, zero, two, 0.9); err == nil {
		t.Error("zero-mean control accepted")
	}
	// Identical arms: the differences are all zero, the covariance is the
	// arms' variance and the interval collapses onto the ratio 1.
	lo, hi, err := PairedRatioCI(three, three, welford(t, []float64{0, 0, 0}), 0.9)
	if err != nil || !almost(lo, 1, 1e-12) || !almost(hi, 1, 1e-12) {
		t.Errorf("identical arms: [%v, %v], %v; want [1, 1]", lo, hi, err)
	}
}

// welford folds xs into a Welford, failing the test on a rejected sample.
func welford(t *testing.T, xs []float64) Welford {
	t.Helper()
	w, err := fold(xs)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// fold folds xs into a Welford, stopping at the first rejected sample.
func fold(xs []float64) (Welford, error) {
	var w Welford
	for _, x := range xs {
		if err := w.Add(x); err != nil {
			return w, err
		}
	}
	return w, nil
}
