package figures

// The shape suite locks in the paper's qualitative claims against the
// cached Quick-scale experiment. If a change to the algorithms, the
// population model or the player moves a headline relationship out of
// band, one of these tests fails — the reproduction's calibration is a
// tested artifact, not a hope.

import (
	"strings"
	"testing"

	"bba/internal/metrics"
)

func quickOutcome(t *testing.T) map[string][]metrics.Window {
	t.Helper()
	out, err := ExperimentOutcome(Quick)
	if err != nil {
		t.Fatal(err)
	}
	return out.Windows
}

func peakRebuf(ws []metrics.Window) float64 {
	return classAvg(ws, metrics.Peak, func(w metrics.Window) float64 { return w.RebuffersPerPlayhour })
}

func peakRate(ws []metrics.Window) float64 {
	return classAvg(ws, metrics.Peak, func(w metrics.Window) float64 { return w.AvgRateKbps })
}

func peakSwitch(ws []metrics.Window) float64 {
	return classAvg(ws, metrics.Peak, func(w metrics.Window) float64 { return w.SwitchesPerPlayhour })
}

// Figure 7: bound < BBA-0 < Control at peak, with BBA-0's reduction in a
// plausible band around the paper's 10–30%.
func TestShapeFig07(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	bound, bba0, ctl := peakRebuf(w["Rmin Always"]), peakRebuf(w["BBA-0"]), peakRebuf(w["Control"])
	if !(bound < bba0 && bba0 < ctl) {
		t.Fatalf("ordering broken: bound %.3f, BBA-0 %.3f, Control %.3f", bound, bba0, ctl)
	}
	reduction := 1 - bba0/ctl
	if reduction < 0.05 || reduction > 0.65 {
		t.Errorf("BBA-0 peak reduction %.0f%%, want within the calibrated 5–65%% band (paper: 10–30%%)", 100*reduction)
	}
}

// Figure 8: Control delivers more average rate than BBA-0 at peak and
// off-peak (the fixed reservoir + slow startup cost).
func TestShapeFig08(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	if d := peakRate(w["Control"]) - peakRate(w["BBA-0"]); d <= 0 {
		t.Errorf("Control − BBA-0 at peak = %.0f kb/s, want positive (paper: ≈100)", d)
	}
	off := classAvg(w["Control"], metrics.OffPeak, func(x metrics.Window) float64 { return x.AvgRateKbps }) -
		classAvg(w["BBA-0"], metrics.OffPeak, func(x metrics.Window) float64 { return x.AvgRateKbps })
	if off <= 0 {
		t.Errorf("Control − BBA-0 off-peak = %.0f kb/s, want positive (paper: ≈175)", off)
	}
}

// Figure 9: BBA-0 switches far less than Control.
func TestShapeFig09(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	ratio := peakSwitch(w["BBA-0"]) / peakSwitch(w["Control"])
	if ratio > 0.6 {
		t.Errorf("BBA-0/Control switch ratio %.2f, want ≤0.6 (paper: ≈0.4)", ratio)
	}
}

// Figure 14: BBA-1 beats BBA-0 and sits between the bound and Control.
func TestShapeFig14(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	bound, bba1, bba0, ctl := peakRebuf(w["Rmin Always"]), peakRebuf(w["BBA-1"]), peakRebuf(w["BBA-0"]), peakRebuf(w["Control"])
	if bba1 >= ctl {
		t.Errorf("BBA-1 %.3f not below Control %.3f", bba1, ctl)
	}
	if bba1 < bound*0.7 {
		t.Errorf("BBA-1 %.3f implausibly below the bound %.3f", bba1, bound)
	}
	// The paper: BBA-1 performs better than BBA-0. Allow parity noise.
	if bba1 > bba0*1.25 {
		t.Errorf("BBA-1 %.3f well above BBA-0 %.3f; Figure 14 ordering lost", bba1, bba0)
	}
}

// Figures 15/17: BBA-2 gains rate over BBA-1 (the startup ramp), and both
// stay within a few hundred kb/s of Control.
func TestShapeFig15And17(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	bba1, bba2, ctl := peakRate(w["BBA-1"]), peakRate(w["BBA-2"]), peakRate(w["Control"])
	if bba2 <= bba1 {
		t.Errorf("BBA-2 rate %.0f not above BBA-1 %.0f (the startup ramp must pay)", bba2, bba1)
	}
	// Known deviation band: |BBA-2 − Control| within 300 kb/s.
	if d := bba2 - ctl; d < -300 || d > 300 {
		t.Errorf("BBA-2 − Control = %.0f kb/s, want within ±300 (paper: ≈0)", d)
	}
}

// Figure 18: BBA-2's steady-state rate beats Control's.
func TestShapeFig18(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	steady := func(ws []metrics.Window) float64 {
		return classAvg(ws, metrics.Peak, func(x metrics.Window) float64 { return x.SteadyRateKbps })
	}
	if d := steady(w["BBA-2"]) - steady(w["Control"]); d <= 0 {
		t.Errorf("BBA-2 − Control steady-state = %.0f kb/s, want positive", d)
	}
}

// Figure 19: BBA-2 rebuffers a little more than BBA-1 (risky startup) but
// still beats Control.
func TestShapeFig19(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	bba1, bba2, ctl := peakRebuf(w["BBA-1"]), peakRebuf(w["BBA-2"]), peakRebuf(w["Control"])
	if bba2 >= ctl {
		t.Errorf("BBA-2 %.3f not below Control %.3f", bba2, ctl)
	}
	if bba2 < bba1*0.8 {
		t.Errorf("BBA-2 %.3f well below BBA-1 %.3f; the risky startup should cost a little", bba2, bba1)
	}
}

// Figures 20/22: the chunk map raises BBA-1/BBA-2 switching above Control;
// BBA-Others brings it back to Control's neighbourhood.
func TestShapeFig20And22(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	ctl := peakSwitch(w["Control"])
	if r := peakSwitch(w["BBA-1"]) / ctl; r <= 1.0 {
		t.Errorf("BBA-1/Control switch ratio %.2f, want > 1", r)
	}
	if r := peakSwitch(w["BBA-Others"]) / ctl; r < 0.5 || r > 1.3 {
		t.Errorf("BBA-Others/Control switch ratio %.2f, want ≈1 (0.5–1.3)", r)
	}
	if peakSwitch(w["BBA-Others"]) >= peakSwitch(w["BBA-1"]) {
		t.Error("smoothing did not reduce switching below BBA-1")
	}
}

// Figure 24: BBA-Others improves the rebuffer rate against Control.
func TestShapeFig24(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	w := quickOutcome(t)
	if peakRebuf(w["BBA-Others"]) >= peakRebuf(w["Control"]) {
		t.Error("BBA-Others not below Control at peak")
	}
}

// Off-peak, the buffer-based algorithms sit statistically at the bound
// (paper footnotes 4–5).
func TestShapeOffPeakAtTheBound(t *testing.T) {
	if testing.Short() {
		t.Skip("weekend experiment")
	}
	out, err := ExperimentOutcome(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []string{"BBA-0", "BBA-1"} {
		res, err := out.SignificanceRebuffers(g, "Rmin Always", metrics.OffPeak)
		if err != nil {
			t.Fatal(err)
		}
		if res.P < 0.05 {
			t.Errorf("%s vs bound off-peak: p = %.3f — distinguishable, but the paper finds parity", g, res.P)
		}
	}
}

// The Figure 16 ramp metric: BBA-2 sustains the steady rate sooner.
func TestShapeFig16(t *testing.T) {
	fig, err := Fig16StartupRamp()
	if err != nil {
		t.Fatal(err)
	}
	// The computed note carries both times; parse-free check: the figure
	// must state BBA-2's time and it must appear before BBA-1's larger
	// one in the series data instead. Compare series directly: the first
	// chunk index where each series reaches 3000.
	reach := map[string]int{}
	for _, s := range fig.Series {
		for i, p := range s.Points {
			if p.Y >= 3000 {
				reach[s.Name] = i
				break
			}
		}
	}
	if reach["BBA-2"] >= reach["BBA-1"] {
		t.Errorf("BBA-2 reached the steady rate at point %d, BBA-1 at %d; want sooner", reach["BBA-2"], reach["BBA-1"])
	}
	if len(fig.Notes) == 0 || !strings.Contains(fig.Notes[0], "BBA-2") {
		t.Error("ramp note missing")
	}
}
