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

// TestWelchTTestRejectsNonFinite: a non-finite sample never reaches the
// test — Welford.Add refuses it — and an accumulator whose moments went
// non-finite from finite samples (an overflowing spread) is refused by the
// test itself.
func TestWelchTTestRejectsNonFinite(t *testing.T) {
	good, err := fold([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	for name, xs := range badSamples() {
		if _, err := fold(xs); !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: folding the sample err = %v, want ErrNonFinite", name, err)
		}
	}
	overflow, err := fold([]float64{1e308, -1e308, 1e308})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WelchTTest(overflow, good); !errors.Is(err, ErrNonFinite) {
		t.Errorf("WelchTTest(overflowed, good) err = %v, want ErrNonFinite", err)
	}
	if _, err := WelchTTest(good, overflow); !errors.Is(err, ErrNonFinite) {
		t.Errorf("WelchTTest(good, overflowed) err = %v, want ErrNonFinite", err)
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

func TestDropNonFinite(t *testing.T) {
	xs := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1)}
	kept, dropped := DropNonFinite(xs)
	if dropped != 3 || len(kept) != 3 {
		t.Fatalf("dropped %d kept %d", dropped, len(kept))
	}
	for i, want := range []float64{1, 2, 3} {
		if kept[i] != want {
			t.Errorf("kept[%d] = %v, want %v", i, kept[i], want)
		}
	}
	clean := []float64{1, 2}
	if kept, dropped := DropNonFinite(clean); dropped != 0 || &kept[0] != &clean[0] {
		t.Error("clean slice should be returned unchanged")
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
