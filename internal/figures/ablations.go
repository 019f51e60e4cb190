package figures

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/campaign"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/sharedlink"
	"bba/internal/trace"
	"bba/internal/units"
)

// ablationExperiment runs a reduced paired experiment over custom groups,
// once per caller-supplied key, through the package's one experiment cache.
func ablationExperiment(key string, groups []abtest.Group) (*campaign.WeekendOutcome, error) {
	cfg := campaign.WeekendConfig(ExperimentSeed+7, 2, 40)
	cfg.Groups = groups
	return experiment(context.Background(), "ablation/"+key, cfg)
}

func groupPeakSummary(out *campaign.WeekendOutcome, names []string) []string {
	var notes []string
	for _, g := range names {
		ws := out.Windows[g]
		rb := classAvg(ws, metrics.Peak, func(w metrics.Window) float64 { return w.RebuffersPerPlayhour })
		rate := classAvg(ws, metrics.Peak, func(w metrics.Window) float64 { return w.AvgRateKbps })
		sw := classAvg(ws, metrics.Peak, func(w metrics.Window) float64 { return w.SwitchesPerPlayhour })
		notes = append(notes, fmt.Sprintf("%-28s peak: %.3f rebuf/h, %.0f kb/s, %.1f switches/h", g, rb, rate, sw))
	}
	return notes
}

func summaryFigure(id, title string, out *campaign.WeekendOutcome, names []string, paperNote string) *Figure {
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "window",
		YLabel: "rebuffers per playhour",
	}
	for _, g := range names {
		fig.Series = append(fig.Series, windowSeries(g, out.Windows[g], func(w metrics.Window) float64 { return w.RebuffersPerPlayhour }))
	}
	fig.Notes = append(fig.Notes, groupPeakSummary(out, names)...)
	fig.Notes = append(fig.Notes, paperNote)
	return fig
}

// AblationReservoir isolates the dynamic (Figure 12) reservoir: BBA-1 as
// deployed versus BBA-1 pinned to BBA-0's fixed 90 s reservoir and to a
// minimal 8 s one.
func AblationReservoir() (*Figure, error) {
	mk := func(fixed time.Duration) func(abtest.User) abr.Algorithm {
		return func(abtest.User) abr.Algorithm {
			a := abr.NewBBA1()
			a.FixedReservoir = fixed
			return a
		}
	}
	names := []string{"BBA-1 (dynamic)", "BBA-1 (fixed 90s)", "BBA-1 (fixed 8s)"}
	out, err := ablationExperiment("reservoir", []abtest.Group{
		{Name: names[0], New: mk(0)},
		{Name: names[1], New: mk(90 * time.Second)},
		{Name: names[2], New: mk(8 * time.Second)},
	})
	if err != nil {
		return nil, err
	}
	fig := summaryFigure("abl-reservoir", "Ablation: dynamic vs fixed reservoir (BBA-1 core)", out, names,
		"design claim (§5.1): the reservoir should be just big enough for the upcoming VBR variation — a small fixed reservoir under-protects, a large fixed one costs video rate")
	return fig, nil
}

// AblationOutageProtection isolates the §7.1 accrual on BBA-1.
func AblationOutageProtection() (*Figure, error) {
	names := []string{"BBA-1 (400ms accrual)", "BBA-1 (no protection)"}
	out, err := ablationExperiment("protection", []abtest.Group{
		{Name: names[0], New: func(abtest.User) abr.Algorithm { return abr.NewBBA1() }},
		{Name: names[1], New: func(abtest.User) abr.Algorithm {
			a := abr.NewBBA1()
			a.ProtectionPerChunk = 0
			return a
		}},
	})
	if err != nil {
		return nil, err
	}
	return summaryFigure("abl-protection", "Ablation: outage-protection accrual (§7.1)", out, names,
		"design claim: 20–40 s of accrued protection converges the buffer higher and rides out brief outages"), nil
}

// AblationStartupThreshold sweeps BBA-2's ΔB step-up threshold.
func AblationStartupThreshold() (*Figure, error) {
	mk := func(start float64) func(abtest.User) abr.Algorithm {
		return func(abtest.User) abr.Algorithm {
			a := abr.NewBBA2()
			a.StartThreshold = start
			return a
		}
	}
	names := []string{"BBA-2 (0.875·V, paper)", "BBA-2 (0.5·V aggressive)", "BBA-2 (1.0·V = no ramp)"}
	out, err := ablationExperiment("startup", []abtest.Group{
		{Name: names[0], New: mk(0.875)},
		{Name: names[1], New: mk(0.5)},
		{Name: names[2], New: mk(1.0)},
	})
	if err != nil {
		return nil, err
	}
	fig := summaryFigure("abl-startup", "Ablation: BBA-2 startup ΔB threshold", out, names,
		"design claim (§6): 0.875·V steps up only when a chunk downloads 8× faster than real time; lower thresholds ramp faster but rebuffer more, disabling the ramp reverts to BBA-1's slow start")
	// Startup rate is the interesting axis here; add it to the notes.
	for _, g := range out.Report.Groups {
		if g.StartupRateKbps.N > 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%-26s first-minute avg rate: %.0f kb/s", g.Name, g.StartupRateKbps.Mean))
		}
	}
	return fig, nil
}

// AblationLookahead sweeps BBA-Others' smoothing window.
func AblationLookahead() (*Figure, error) {
	mk := func(depth int) func(abtest.User) abr.Algorithm {
		return func(abtest.User) abr.Algorithm {
			a := abr.NewBBAOthers()
			a.MaxLookahead = depth
			return a
		}
	}
	names := []string{"lookahead 1", "lookahead 8", "lookahead 60 (paper)"}
	out, err := ablationExperiment("lookahead", []abtest.Group{
		{Name: names[0], New: mk(1)},
		{Name: names[1], New: mk(8)},
		{Name: names[2], New: mk(60)},
	})
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "abl-lookahead",
		Title:  "Ablation: BBA-Others lookahead depth",
		XLabel: "window",
		YLabel: "switches per playhour",
	}
	for _, g := range names {
		fig.Series = append(fig.Series, windowSeries(g, out.Windows[g], func(w metrics.Window) float64 { return w.SwitchesPerPlayhour }))
	}
	fig.Notes = groupPeakSummary(out, names)
	fig.Notes = append(fig.Notes,
		"design claim (§7.2): the deeper the lookahead, the more up-switches it suppresses — lower switch rate at a small cost in video rate")
	return fig, nil
}

// SharedLinkFairness is the Section 8 extension: competing players on one
// bottleneck. Identical BBA players split the link evenly; a BBA player
// holds its fair share against a long-lived bulk flow.
func SharedLinkFairness() (*Figure, error) {
	video, err := media.NewVBR(media.VBRConfig{
		Ladder:    media.DefaultLadder(),
		NumChunks: 450,
	}, rand.New(rand.NewSource(30)))
	if err != nil {
		return nil, err
	}
	fig := &Figure{
		ID:     "ext-sharedlink",
		Title:  "Extension (§8): players competing on a shared bottleneck",
		XLabel: "scenario",
		YLabel: "Jain fairness index over delivered rates",
	}
	s := Series{Name: "fairness"}
	for _, sc := range []struct {
		name string
		mk   func() abr.Algorithm
		link units.BitRate
	}{
		{"2×BBA-2 @5Mb/s", func() abr.Algorithm { return abr.NewBBA2() }, 5 * units.Mbps},
		{"2×BBA-2 @12Mb/s", func() abr.Algorithm { return abr.NewBBA2() }, 12 * units.Mbps},
		{"2×Control @5Mb/s", func() abr.Algorithm { return abr.NewControl() }, 5 * units.Mbps},
	} {
		res, err := sharedlink.Run(sharedlink.Config{
			Trace: trace.Constant(sc.link, 2*time.Hour),
			Players: []sharedlink.PlayerConfig{
				{Algorithm: sc.mk(), Stream: abr.NewStream(video, 0), WatchLimit: 15 * time.Minute},
				{Algorithm: sc.mk(), Stream: abr.NewStream(video, 0), WatchLimit: 15 * time.Minute},
			},
		})
		if err != nil {
			return nil, err
		}
		s.Points = append(s.Points, Point{X: sc.name, Y: res.FairnessIndex()})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: fairness %.3f, rates %.0f / %.0f kb/s",
			sc.name, res.FairnessIndex(), res.Players[0].AvgRateKbps(), res.Players[1].AvgRateKbps()))
	}

	// BBA against a bulk flow: no downward spiral.
	cbr, err := media.NewCBR("cbr", media.DefaultLadder(), media.DefaultChunkDuration, 450)
	if err != nil {
		return nil, err
	}
	res, err := sharedlink.Run(sharedlink.Config{
		Trace:     trace.Constant(6*units.Mbps, 2*time.Hour),
		BulkFlows: 1,
		Players: []sharedlink.PlayerConfig{{
			Algorithm: abr.NewBBA2(), Stream: abr.NewStream(cbr, 0), WatchLimit: 15 * time.Minute,
		}},
		Horizon: time.Hour,
	})
	if err != nil {
		return nil, err
	}
	s.Points = append(s.Points, Point{X: "BBA-2 vs bulk @6Mb/s", Y: res.Players[0].SteadyAvgRateKbps() / 3000})
	fig.Notes = append(fig.Notes, fmt.Sprintf(
		"BBA-2 against a long-lived bulk flow on 6 Mb/s: steady rate %.0f kb/s (fair share 3000) — no downward spiral",
		res.Players[0].SteadyAvgRateKbps()))
	fig.Series = []Series{s}
	fig.Notes = append(fig.Notes,
		"paper §8: with full buffers all players request R_max and the algorithm is fair; requesting R_max during ON-OFF avoids the estimator downward spiral")
	return fig, nil
}
