package stats

import (
	"errors"
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

// ratioPair folds draws of (count A, exposure A, count B, exposure B) into
// a RatioPair, failing the test on a rejected draw.
func ratioPair(t *testing.T, draws [][4]float64) RatioPair {
	t.Helper()
	var r RatioPair
	for _, d := range draws {
		if err := r.Add(d[0], d[1], d[2], d[3]); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// The paired ratio test replaced a Welch t-test on per-draw means and a
// separate delta-method interval on the ratio of means; the tests that held
// those two keep their names and now hold RatioPair.Test, which gives both
// the interval and the p-value behind Footnotes 4–5.

// knownDraws are five paired draws with unit exposures, worked by hand:
//
//	count A = 1 3 2 5 4     mean 3
//	count B = 2 4 6 8 10    mean 6,   R = 3/6 = 0.5
//
// Each draw's influence on log R is g·(x − mean) = (a−3)/3 − (b−6)/6 =
// (2a − b)/6 = 0, 1/3, −1/3, 1/3, −1/3, so se² = (4/9)/(5·4) = 1/45, the
// 90% interval is 0.5·exp(±1.6448536269514722/√45) = [0.39127, 0.63894]
// and p = erfc(ln 2·√45/√2) ≈ 3.3e-6.
func knownDraws() [][4]float64 {
	a := []float64{1, 3, 2, 5, 4}
	b := []float64{2, 4, 6, 8, 10}
	var draws [][4]float64
	for i := range a {
		draws = append(draws, [4]float64{a[i], 1, b[i], 1})
	}
	return draws
}

// knownTests runs the 90% test on knownDraws seen from A and from B.
func knownTests(t *testing.T) (ab, ba RatioTest) {
	t.Helper()
	ab, err := ratioPair(t, knownDraws()).Test(0.9)
	if err != nil {
		t.Fatal(err)
	}
	ba, err = ratioPair(t, knownDraws()).Swapped().Test(0.9)
	if err != nil {
		t.Fatal(err)
	}
	return ab, ba
}

// TestPairedRatioCIKnownValue holds the ratio and its interval to the
// hand-worked values of knownDraws; seen from B they are the reciprocals.
func TestPairedRatioCIKnownValue(t *testing.T) {
	res, ba := knownTests(t)
	se := 1 / math.Sqrt(45)
	wantLo, wantHi := 0.5*math.Exp(-1.6448536269514722*se), 0.5*math.Exp(1.6448536269514722*se)
	if res.N != 5 || !almost(res.Ratio, 0.5, 1e-15) || !almost(res.Lo, wantLo, 1e-12) || !almost(res.Hi, wantHi, 1e-12) {
		t.Errorf("test = %+v, want n 5, ratio 0.5, CI [%.15f, %.15f]", res, wantLo, wantHi)
	}
	if !almost(res.Lo, 0.39127, 1e-5) || !almost(res.Hi, 0.63894, 1e-5) {
		t.Errorf("CI = [%.5f, %.5f], want [0.39127, 0.63894]", res.Lo, res.Hi)
	}
	if !almost(ba.Ratio, 1/res.Ratio, 1e-12) || !almost(ba.Lo, 1/res.Hi, 1e-12) || !almost(ba.Hi, 1/res.Lo, 1e-12) {
		t.Errorf("swapped = %+v, from %+v", ba, res)
	}
}

// TestRatioPairKnownValue holds the p-value to the hand-worked value of
// knownDraws; seen from B it is the same.
func TestRatioPairKnownValue(t *testing.T) {
	res, ba := knownTests(t)
	se := 1 / math.Sqrt(45)
	if want := math.Erfc(math.Ln2 / se / math.Sqrt2); !almost(res.P, want, 1e-15) || !almost(res.P, 3.3e-6, 0.1e-6) {
		t.Errorf("p = %v, want %v", res.P, want)
	}
	if !almost(ba.P, res.P, 1e-12) {
		t.Errorf("swapped p = %v, from %v", ba.P, res.P)
	}
}

// TestPairedRatioCIDegenerate: draws that cannot decide a ratio say so, and
// identical arms give R = 1 with a collapsed interval and p = 1.
func TestPairedRatioCIDegenerate(t *testing.T) {
	for name, draws := range map[string][][4]float64{
		"no draws":         nil,
		"one draw":         {{1, 1, 2, 1}},
		"A never counts":   {{0, 1, 2, 1}, {0, 2, 1, 1}},
		"B never counts":   {{1, 1, 0, 1}, {2, 2, 0, 1}},
		"no exposure in A": {{1, 0, 2, 1}, {2, 0, 1, 1}},
	} {
		res, err := ratioPair(t, draws).Test(0.9)
		if !errors.Is(err, ErrUndecided) || res.N != int64(len(draws)) {
			t.Errorf("%s: %+v, %v; want ErrUndecided with n = %d", name, res, err, len(draws))
		}
	}
	// Identical arms: every draw's influence is zero, R = 1 and p = 1.
	res, err := ratioPair(t, [][4]float64{{1, 0.5, 1, 0.5}, {0, 2, 0, 2}, {3, 1, 3, 1}}).Test(0.9)
	if err != nil || res.Ratio != 1 || res.Lo != 1 || res.Hi != 1 || res.P != 1 {
		t.Errorf("identical arms: %+v, %v; want ratio, CI and p all 1", res, err)
	}
}

// TestRatioPairDegenerate: draws alike in every way yet with different
// rates have no spread, so the interval collapses onto the ratio and p = 0.
func TestRatioPairDegenerate(t *testing.T) {
	res, err := ratioPair(t, [][4]float64{{1, 1, 2, 1}, {1, 1, 2, 1}, {1, 1, 2, 1}}).Test(0.9)
	if err != nil || res.Ratio != 0.5 || res.Lo != 0.5 || res.Hi != 0.5 || res.P != 0 {
		t.Errorf("constant draws: %+v, %v; want ratio and CI 0.5, p 0", res, err)
	}
}

// TestRatioPairMergeMatchesSequential: shards merged in order hold every
// moment to the sequential fold's, and merging an empty accumulator
// either way changes nothing.
func TestRatioPairMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var seq, merged RatioPair
	for shard := 0; shard < 7; shard++ {
		var part RatioPair
		for i := 0; i < 1+shard*13; i++ {
			d := [4]float64{float64(rng.Intn(4)), rng.ExpFloat64(), float64(rng.Intn(3)), rng.ExpFloat64()}
			for _, r := range []*RatioPair{&seq, &part} {
				if err := r.Add(d[0], d[1], d[2], d[3]); err != nil {
					t.Fatal(err)
				}
			}
		}
		merged.Merge(part)
	}
	if merged.N != seq.N {
		t.Fatalf("merged n = %d, sequential %d", merged.N, seq.N)
	}
	for i := range seq.Mean {
		if !almost(merged.Mean[i], seq.Mean[i], 1e-12) {
			t.Errorf("mean %d: merged %v, sequential %v", i, merged.Mean[i], seq.Mean[i])
		}
		for j := range seq.C[i] {
			if !almost(merged.C[i][j], seq.C[i][j], 1e-9*math.Max(1, math.Abs(seq.C[i][j]))) {
				t.Errorf("co-moment %d,%d: merged %v, sequential %v", i, j, merged.C[i][j], seq.C[i][j])
			}
			if merged.C[i][j] != merged.C[j][i] {
				t.Errorf("co-moments %d,%d not symmetric: %v vs %v", i, j, merged.C[i][j], merged.C[j][i])
			}
		}
	}
	before := merged
	merged.Merge(RatioPair{})
	var empty RatioPair
	empty.Merge(before)
	if merged != before || empty != before {
		t.Error("merging an empty accumulator changed the result")
	}
}

// The p-value is always a valid probability and the interval holds the
// ratio, whatever the draws.
func TestQuickRatioPairPValueRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(n uint8, shift float64) bool {
		if math.IsNaN(shift) || math.IsInf(shift, 0) {
			return true
		}
		var r RatioPair
		for i := 0; i < int(n%50)+2; i++ {
			if err := r.Add(1+float64(rng.Intn(5)), rng.ExpFloat64(), 1+float64(rng.Intn(5))+math.Abs(math.Mod(shift, 10)), rng.ExpFloat64()); err != nil {
				return false
			}
		}
		res, err := r.Test(0.9)
		if err != nil {
			return false
		}
		return res.P >= 0 && res.P <= 1 && res.Lo <= res.Ratio && res.Ratio <= res.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// sameAndDoubled folds 400 draws of two arms whose counts and exposures
// come from one distribution, and the same draws with arm A's counts
// doubled.
func sameAndDoubled(t *testing.T) (same, double RatioPair) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		ea, eb := rng.ExpFloat64(), rng.ExpFloat64()
		ca, cb := float64(rng.Intn(4)), float64(rng.Intn(4))
		if err := same.Add(ca, ea, cb, eb); err != nil {
			t.Fatal(err)
		}
		if err := double.Add(2*ca, ea, cb, eb); err != nil {
			t.Fatal(err)
		}
	}
	return same, double
}

// Two arms drawing counts and exposures from one distribution are not told
// apart.
func TestRatioPairEqualSamples(t *testing.T) {
	same, _ := sameAndDoubled(t)
	if res, err := same.Test(0.9); err != nil || res.P < 0.01 {
		t.Errorf("same-distribution arms: %+v, %v; want p ≥ 0.01", res, err)
	}
}

// Doubling one arm's counts is told apart.
func TestRatioPairDifferentMeans(t *testing.T) {
	_, double := sameAndDoubled(t)
	if res, err := double.Test(0.9); err != nil || res.P > 1e-6 || res.Ratio <= 1 {
		t.Errorf("doubled counts: %+v, %v; want ratio > 1 and p ≤ 1e-6", res, err)
	}
}
