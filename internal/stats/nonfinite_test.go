package stats

import (
	"errors"
	"math"
	"testing"
)

// Regression tests for the non-finite-input guard: sort.Float64s silently
// misorders NaN, so every sort-based statistic must reject NaN/±Inf with an
// explicit error instead of returning a silently corrupted quantile.

func badSamples() map[string][]float64 {
	return map[string][]float64{
		"nan":      {1, math.NaN(), 3, 4, 5},
		"plus-inf": {1, 2, math.Inf(1), 4, 5},
		"neg-inf":  {math.Inf(-1), 2, 3, 4, 5},
	}
}

func TestPercentileRejectsNonFinite(t *testing.T) {
	for name, xs := range badSamples() {
		if _, err := Percentile(xs, 50); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Percentile err = %v, want ErrNonFinite", name, err)
		}
		if _, err := Median(xs); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Median err = %v, want ErrNonFinite", name, err)
		}
		if _, err := QuartileRatio(xs); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: QuartileRatio err = %v, want ErrNonFinite", name, err)
		}
		if _, err := MedianTo95Ratio(xs); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: MedianTo95Ratio err = %v, want ErrNonFinite", name, err)
		}
		if _, err := Summarize(xs); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: Summarize err = %v, want ErrNonFinite", name, err)
		}
	}
}

// TestRatioPairRejectsNonFinite: a draw with a non-finite value never
// reaches the accumulator — Add refuses it and leaves the moments as they
// were — and co-moments that went non-finite from finite draws (an
// overflowing spread) are refused by the test rather than yielding a NaN
// p-value.
func TestRatioPairRejectsNonFinite(t *testing.T) {
	var r RatioPair
	if err := r.Add(1, 1, 2, 1); err != nil {
		t.Fatal(err)
	}
	before := r
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 4; i++ {
			d := [4]float64{1, 1, 1, 1}
			d[i] = bad
			if err := r.Add(d[0], d[1], d[2], d[3]); !errors.Is(err, ErrNonFinite) {
				t.Errorf("draw %v: err = %v, want ErrNonFinite", d, err)
			}
		}
	}
	if r != before {
		t.Error("a refused draw changed the accumulator")
	}
	var overflow RatioPair
	for _, c := range []float64{1e300, 1, 1e300} {
		if err := overflow.Add(c, 1, c, 1e-300); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := overflow.Test(0.9); !errors.Is(err, ErrNonFinite) {
		t.Errorf("overflowed co-moments: err = %v, want ErrNonFinite", err)
	}
}

// TestMeanPropagatesNonFinite pins Mean's documented contract: a non-finite
// sample surfaces as a non-finite mean — visible, never a silently wrong
// finite number (the failure mode the sort-based quantiles had).
func TestMeanPropagatesNonFinite(t *testing.T) {
	if m := Mean([]float64{1, math.NaN(), 3}); !math.IsNaN(m) {
		t.Errorf("Mean with NaN = %v, want NaN", m)
	}
	if m := Mean([]float64{1, math.Inf(1), 3}); !math.IsInf(m, 1) {
		t.Errorf("Mean with +Inf = %v, want +Inf", m)
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite([]float64{1, 2}, []float64{3}); err != nil {
		t.Errorf("finite input rejected: %v", err)
	}
	if err := CheckFinite([]float64{1}, []float64{math.NaN()}); !errors.Is(err, ErrNonFinite) {
		t.Errorf("err = %v, want ErrNonFinite", err)
	}
}
