package figures

import (
	"errors"
	"fmt"

	"bba/internal/campaign"
	"bba/internal/metrics"
	"bba/internal/stats"
)

// rebufferFigure builds the Figure 7/14/19/24 family: absolute rebuffers
// per playhour per two-hour window for the named groups, plus the
// normalized-to-Control series of the figure's (b) panel, with peak-window
// comparison notes.
func rebufferFigure(scale Scale, id, title string, groups []string, paperNote string) (*Figure, error) {
	out, err := ExperimentOutcome(scale)
	if err != nil {
		return nil, err
	}
	control := out.Windows["Control"]
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "window",
		YLabel: "rebuffers per playhour (absolute + normalized-to-Control)",
	}
	for _, g := range append([]string{"Control"}, groups...) {
		ws, ok := out.Windows[g]
		if !ok {
			return nil, fmt.Errorf("figures: group %q missing from experiment", g)
		}
		fig.Series = append(fig.Series, windowSeries(g, ws, func(w metrics.Window) float64 { return w.RebuffersPerPlayhour }))
	}
	for _, g := range groups {
		norm := metrics.NormalizeRebuffers(out.Windows[g], control)
		fig.Series = append(fig.Series, Series{Name: g + "/Ctl", Points: windowPoints(norm)})
	}
	ctrlPeak := classAvg(control, metrics.Peak, func(w metrics.Window) float64 { return w.RebuffersPerPlayhour })
	for _, g := range groups {
		gPeak := classAvg(out.Windows[g], metrics.Peak, func(w metrics.Window) float64 { return w.RebuffersPerPlayhour })
		if ctrlPeak <= 0 {
			continue
		}
		ci, err := pairedRatioNote(out, g)
		if err != nil {
			return nil, err
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s peak rebuffer rate = %.3f/h vs Control %.3f/h: a %.0f%% reduction%s",
			g, gPeak, ctrlPeak, 100*(1-gPeak/ctrlPeak), ci))
	}
	// Section 4.2's headline quantification: the gap between the Control
	// and the Rmin Always bound is the share of rebuffers "caused by poor
	// choice of video rate".
	if boundWs, ok := out.Windows["Rmin Always"]; ok && ctrlPeak > 0 {
		bound := classAvg(boundWs, metrics.Peak, func(w metrics.Window) float64 { return w.RebuffersPerPlayhour })
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"unnecessary-rebuffer share at peak (Control vs bound): %.0f%% (paper §4.2: 20–30%%)",
			100*(1-bound/ctrlPeak)))
	}
	fig.Notes = append(fig.Notes, paperNote)
	return fig, nil
}

// pairedRatioNote is the parenthetical of a peak-reduction note: the 90%
// paired CI on the pooled ratio the note prints, g's peak rebuffer rate to
// Control's, or, when the draws cannot decide one, how many there were.
func pairedRatioNote(out *campaign.WeekendOutcome, g string) (string, error) {
	res, err := out.SignificanceRebuffers(g, "Control", metrics.Peak)
	switch {
	case errors.Is(err, stats.ErrUndecided):
		return fmt.Sprintf(" (paired CI undecided: n = %d draws)", res.N), nil
	case err != nil:
		return "", err
	}
	return fmt.Sprintf(" (90%% paired CI on the ratio: %.2f–%.2f)", res.Lo, res.Hi), nil
}

// rateFigure builds the Figure 8/15/17/23 family: per-window average video
// rate per group plus the Control-minus-group delta the paper plots.
func rateFigure(scale Scale, id, title string, groups []string, paperNote string) (*Figure, error) {
	out, err := ExperimentOutcome(scale)
	if err != nil {
		return nil, err
	}
	control := out.Windows["Control"]
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "window",
		YLabel: "average video rate (kb/s) and Control − group delta",
	}
	for _, g := range append([]string{"Control"}, groups...) {
		fig.Series = append(fig.Series, windowSeries(g, out.Windows[g], func(w metrics.Window) float64 { return w.AvgRateKbps }))
	}
	for _, g := range groups {
		delta := metrics.RateDeltaKbps(control, out.Windows[g])
		fig.Series = append(fig.Series, Series{Name: "Ctl−" + g, Points: windowPoints(delta)})
	}
	for _, g := range groups {
		dPeak := classAvg(control, metrics.Peak, func(w metrics.Window) float64 { return w.AvgRateKbps }) -
			classAvg(out.Windows[g], metrics.Peak, func(w metrics.Window) float64 { return w.AvgRateKbps })
		dOff := classAvg(control, metrics.OffPeak, func(w metrics.Window) float64 { return w.AvgRateKbps }) -
			classAvg(out.Windows[g], metrics.OffPeak, func(w metrics.Window) float64 { return w.AvgRateKbps })
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"Control − %s: %+.0f kb/s at peak, %+.0f kb/s off-peak", g, dPeak, dOff))
	}
	fig.Notes = append(fig.Notes, paperNote)
	return fig, nil
}

// switchFigure builds the Figure 9/20/22 family: switch rates normalized to
// Control per window.
func switchFigure(scale Scale, id, title string, groups []string, paperNote string) (*Figure, error) {
	out, err := ExperimentOutcome(scale)
	if err != nil {
		return nil, err
	}
	control := out.Windows["Control"]
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "window",
		YLabel: "switch rate normalized to Control (1.0 = Control)",
	}
	for _, g := range groups {
		norm := metrics.NormalizeSwitches(out.Windows[g], control)
		fig.Series = append(fig.Series, Series{Name: g + "/Ctl", Points: windowPoints(norm)})
		peakRatio := classAvg(out.Windows[g], metrics.Peak, func(w metrics.Window) float64 { return w.SwitchesPerPlayhour }) /
			classAvg(control, metrics.Peak, func(w metrics.Window) float64 { return w.SwitchesPerPlayhour })
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s switch rate = %.2f× Control at peak", g, peakRatio))
	}
	fig.Notes = append(fig.Notes, paperNote)
	return fig, nil
}

// Fig07RebufferRateBBA0 reproduces Figure 7: Control vs Rmin Always vs
// BBA-0 rebuffer rates across the day.
func Fig07RebufferRateBBA0(scale Scale) (*Figure, error) {
	return rebufferFigure(scale, "fig07",
		"Rebuffers per playhour: Control, Rmin Always, BBA-0",
		[]string{"Rmin Always", "BBA-0"},
		"paper: BBA-0 and Rmin Always always below Control; BBA-0 10–30% below Control at peak and ≈ the bound off-peak")
}

// Fig08VideoRateBBA0 reproduces Figure 8: the Control-minus-BBA-0 video
// rate difference.
func Fig08VideoRateBBA0(scale Scale) (*Figure, error) {
	return rateFigure(scale, "fig08",
		"Video rate: Control vs BBA-0",
		[]string{"BBA-0"},
		"paper: BBA-0 roughly 100 kb/s below Control at peak, 175 kb/s off-peak (fixed 90 s reservoir + slow startup)")
}

// Fig09SwitchRateBBA0 reproduces Figure 9: BBA-0's switch rate normalized
// to Control.
func Fig09SwitchRateBBA0(scale Scale) (*Figure, error) {
	return switchFigure(scale, "fig09",
		"Video switching rate: BBA-0 vs Control",
		[]string{"BBA-0"},
		"paper: BBA-0 cuts the switch rate by ≈60% at peak, ≈50% off-peak")
}

// Fig14RebufferRateBBA1 reproduces Figure 14: BBA-1 against Control and the
// lower bound.
func Fig14RebufferRateBBA1(scale Scale) (*Figure, error) {
	return rebufferFigure(scale, "fig14",
		"Rebuffers per playhour: Control, Rmin Always, BBA-1",
		[]string{"Rmin Always", "BBA-0", "BBA-1"},
		"paper: BBA-1 comes close to the optimal line, performs better than BBA-0, and improves 20–28% over Control at peak")
}

// Fig15VideoRateBBA1 reproduces Figure 15: BBA-1's video rate against
// Control and BBA-0.
func Fig15VideoRateBBA1(scale Scale) (*Figure, error) {
	return rateFigure(scale, "fig15",
		"Video rate: Control vs BBA-0 vs BBA-1",
		[]string{"BBA-0", "BBA-1"},
		"paper: BBA-1 gains 40–70 kb/s over BBA-0 but stays 50–120 kb/s below Control (startup still map-bound)")
}

// Fig17VideoRateBBA2 reproduces Figure 17: BBA-2's overall video rate
// against Control.
func Fig17VideoRateBBA2(scale Scale) (*Figure, error) {
	return rateFigure(scale, "fig17",
		"Video rate: Control vs BBA-1 vs BBA-2",
		[]string{"BBA-1", "BBA-2"},
		"paper: with the startup ramp, BBA-2's average rate is almost indistinguishable from Control")
}

// Fig18SteadyStateRate reproduces Figure 18: steady-state (first two
// minutes excluded) video rate, where BBA-2 beats Control.
func Fig18SteadyStateRate(scale Scale) (*Figure, error) {
	out, err := ExperimentOutcome(scale)
	if err != nil {
		return nil, err
	}
	control := out.Windows["Control"]
	fig := &Figure{
		ID:     "fig18",
		Title:  "Steady-state video rate (sessions after their first two minutes)",
		XLabel: "window",
		YLabel: "steady-state video rate (kb/s) and BBA-2 − Control delta",
	}
	for _, g := range []string{"Control", "BBA-2"} {
		fig.Series = append(fig.Series, windowSeries(g, out.Windows[g], func(w metrics.Window) float64 { return w.SteadyRateKbps }))
	}
	delta := metrics.SteadyRateDeltaKbps(control, out.Windows["BBA-2"])
	for i := range delta {
		delta[i] = -delta[i] // plot BBA-2 − Control, the paper's direction
	}
	fig.Series = append(fig.Series, Series{Name: "BBA2−Ctl", Points: windowPoints(delta)})
	dPeak := classAvg(out.Windows["BBA-2"], metrics.Peak, func(w metrics.Window) float64 { return w.SteadyRateKbps }) -
		classAvg(control, metrics.Peak, func(w metrics.Window) float64 { return w.SteadyRateKbps })
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("BBA-2 − Control steady-state rate at peak: %+.0f kb/s", dPeak),
		"paper: excluding the first two minutes, BBA-2's rate is mostly higher than Control — the buffer-based approach better utilizes capacity in steady state")
	return fig, nil
}

// Fig19RebufferRateBBA2 reproduces Figure 19.
func Fig19RebufferRateBBA2(scale Scale) (*Figure, error) {
	return rebufferFigure(scale, "fig19",
		"Rebuffers per playhour: Control, BBA-1, BBA-2",
		[]string{"Rmin Always", "BBA-1", "BBA-2"},
		"paper: BBA-2 rebuffers slightly more than BBA-1 (it enters the risky area during startup) yet keeps a 10–20% improvement over Control at peak")
}

// Fig20SwitchRateChunkMap reproduces Figure 20: the chunk map makes BBA-1
// and BBA-2 switch more often than Control.
func Fig20SwitchRateChunkMap(scale Scale) (*Figure, error) {
	return switchFigure(scale, "fig20",
		"Video switching rate: BBA-1/BBA-2 vs Control",
		[]string{"BBA-1", "BBA-2"},
		"paper: after moving to the chunk map, BBA-1 and BBA-2 switch much more often than Control")
}

// Fig22SwitchRateBBAOthers reproduces Figure 22: lookahead smoothing plus
// the right-shift-only reservoir bring the switch rate back to Control's.
func Fig22SwitchRateBBAOthers(scale Scale) (*Figure, error) {
	return switchFigure(scale, "fig22",
		"Video switching rate: BBA-Others vs Control",
		[]string{"BBA-1", "BBA-Others"},
		"paper: BBA-Others is almost indistinguishable from Control — sometimes higher, sometimes lower")
}

// Fig23VideoRateBBAOthers reproduces Figure 23.
func Fig23VideoRateBBAOthers(scale Scale) (*Figure, error) {
	return rateFigure(scale, "fig23",
		"Video rate: Control vs BBA-2 vs BBA-Others",
		[]string{"BBA-2", "BBA-Others"},
		"paper: BBA-Others matches Control's rate at peak and gives up 20–30 kb/s off-peak relative to BBA-2 (up-switch smoothing is conservative)")
}

// Fig24RebufferRateBBAOthers reproduces Figure 24.
func Fig24RebufferRateBBAOthers(scale Scale) (*Figure, error) {
	return rebufferFigure(scale, "fig24",
		"Rebuffers per playhour: Control, Rmin Always, BBA-Others",
		[]string{"Rmin Always", "BBA-Others"},
		"paper: BBA-Others reduces the rebuffer rate by 20–30% against Control")
}

// Sec4Significance reproduces the paper's footnote significance tests: the
// hypothesis that a buffer-based group and Rmin Always have the same
// off-peak pooled rebuffer rate is not rejected at the 95% level.
func Sec4Significance(scale Scale) (*Figure, error) {
	out, err := ExperimentOutcome(scale)
	if err != nil {
		return nil, err
	}
	return sec4Figure(out)
}

// sec4Figure is Sec4Significance over an outcome. A comparison the draws
// cannot decide has a note saying so and no point.
func sec4Figure(out *campaign.WeekendOutcome) (*Figure, error) {
	fig := &Figure{
		ID:     "sec4",
		Title:  "Off-peak rebuffer-rate significance vs the Rmin Always bound (paired test on the pooled ratio)",
		XLabel: "comparison",
		YLabel: "two-sided p-value",
	}
	s := Series{Name: "p-value"}
	for _, g := range []string{"BBA-0", "BBA-1", "BBA-2", "BBA-Others", "Control"} {
		res, err := out.SignificanceRebuffers(g, "Rmin Always", metrics.OffPeak)
		if errors.Is(err, stats.ErrUndecided) {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s vs Rmin Always off-peak: undecided: n = %d draws", g, res.N))
			continue
		}
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{X: g + " vs bound", Y: res.P})
		verdict := "not rejected"
		if res.P < 0.05 {
			verdict = "REJECTED"
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s vs Rmin Always off-peak: p = %.2f (equal pooled rebuffer rate %s at 95%%)", g, res.P, verdict))
	}
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes,
		"paper footnotes 4–5: p = 0.25 (BBA-0) and p = 0.74 (BBA-1) — off-peak the buffer-based algorithms are statistically at the bound")
	return fig, nil
}
