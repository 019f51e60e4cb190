// Package figures regenerates every figure of the paper's evaluation.
// Each generator returns a Figure — named series over a labelled axis plus
// computed notes comparing the reproduction against the paper's reported
// shape — and is wired to a benchmark in the repository root and to the
// abtest command.
//
// The A/B figures (7–9, 14–15, 17–20, 22–24) all derive from one weekend-
// scale experiment over the same paired population; the experiment runs
// once per scale and is cached, exactly as the paper's figures all read
// from the same deployment weekend.
package figures

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"

	"bba/internal/campaign"
	"bba/internal/metrics"
)

// Scale selects the population size of the cached A/B experiment.
type Scale int

const (
	// Quick runs a reduced weekend (2 days × 80 sessions/window): a few
	// seconds, adequate for smoke checks.
	Quick Scale = iota
	// Full runs the reference weekend (3 days × 160 sessions/window)
	// used for EXPERIMENTS.md.
	Full
)

// ParseScale resolves a -scale flag value.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "full":
		return Full, nil
	}
	return Quick, fmt.Errorf("unknown scale %q (want quick or full)", name)
}

// ExperimentSeed fixes the reference experiment; change it to resample the
// population.
const ExperimentSeed = 2014

// Point is one X-labelled sample of a series.
type Point struct {
	X string
	Y float64
}

// Series is a named line in a figure.
type Series struct {
	Name   string
	Points []Point
}

// Figure is a reproduced table/plot: the series the paper's figure shows,
// plus notes stating the shape comparison.
type Figure struct {
	ID     string // e.g. "fig07b"
	Title  string
	XLabel string
	YLabel string
	Series []Series
	Notes  []string
}

// WriteTable renders the figure as an aligned text table followed by its
// notes.
func (f *Figure) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", strings.ToUpper(f.ID), f.Title); err != nil {
		return err
	}
	if len(f.Series) > 0 {
		fmt.Fprintf(w, "%-22s", f.XLabel)
		for _, s := range f.Series {
			fmt.Fprintf(w, "%16s", truncate(s.Name, 15))
		}
		fmt.Fprintln(w)
		for i := range longestSeries(f.Series).Points {
			fmt.Fprintf(w, "%-22s", f.Series[seriesWithPoint(f.Series, i)].Points[i].X)
			for _, s := range f.Series {
				if i < len(s.Points) {
					fmt.Fprintf(w, "%16.3f", s.Points[i].Y)
				} else {
					fmt.Fprintf(w, "%16s", "-")
				}
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintf(w, "(Y axis: %s)\n", f.YLabel)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(w, "  * %s\n", n)
	}
	return nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}

func longestSeries(ss []Series) Series {
	best := ss[0]
	for _, s := range ss[1:] {
		if len(s.Points) > len(best.Points) {
			best = s
		}
	}
	return best
}

func seriesWithPoint(ss []Series, i int) int {
	for j, s := range ss {
		if i < len(s.Points) {
			return j
		}
	}
	return 0
}

// ExperimentConfig returns the weekend experiment's campaign configuration
// at a scale — the exact population ExperimentOutcome runs — so callers
// (bbacampaign weekend) can replay it under modified conditions.
func ExperimentConfig(scale Scale) campaign.Config {
	if scale == Full {
		return campaign.WeekendConfig(ExperimentSeed, 3, 160)
	}
	return campaign.WeekendConfig(ExperimentSeed, 2, 80)
}

// expFlight is the single-flight slot for one population experiment — a
// scale's weekend, or one ablation's arms: the first caller runs it,
// concurrent callers block on the same run, and every later caller reads
// the cached result. Slots are independent, so distinct experiments run
// side by side under GenerateAll's fan-out.
type expFlight struct {
	once sync.Once
	out  *campaign.WeekendOutcome
	err  error
}

var (
	expMu      sync.Mutex
	expFlights = map[string]*expFlight{}
)

// experiment returns the outcome cached under key, running cfg on first
// use. The context of whichever caller starts the flight governs it; a run
// that failed (including one canceled mid-flight) is not cached, so a later
// caller retries.
func experiment(ctx context.Context, key string, cfg campaign.Config) (*campaign.WeekendOutcome, error) {
	expMu.Lock()
	f, ok := expFlights[key]
	if !ok {
		f = &expFlight{}
		expFlights[key] = f
	}
	expMu.Unlock()
	f.once.Do(func() {
		f.out, f.err = campaign.RunWeekend(ctx, cfg)
		if f.err != nil {
			// Drop the poisoned flight so the next caller can retry.
			expMu.Lock()
			if expFlights[key] == f {
				delete(expFlights, key)
			}
			expMu.Unlock()
		}
	})
	return f.out, f.err
}

func weekendKey(scale Scale) string { return fmt.Sprintf("weekend/%d", scale) }

// ExperimentOutcome returns the cached weekend A/B experiment at the given
// scale, running it on first use.
func ExperimentOutcome(scale Scale) (*campaign.WeekendOutcome, error) {
	return ExperimentOutcomeContext(context.Background(), scale)
}

// ExperimentOutcomeContext is ExperimentOutcome with cancellation. The
// experiment runs at most once per scale (single-flight): concurrent
// callers — the parallel figure generators — share one run.
func ExperimentOutcomeContext(ctx context.Context, scale Scale) (*campaign.WeekendOutcome, error) {
	return experiment(ctx, weekendKey(scale), ExperimentConfig(scale))
}

// ExperimentStats returns the execution stats of the cached weekend
// experiment at a scale, and whether that experiment has completed. It
// never triggers a run.
func ExperimentStats(scale Scale) (campaign.RunStats, bool) {
	expMu.Lock()
	f, ok := expFlights[weekendKey(scale)]
	expMu.Unlock()
	if !ok || f.out == nil {
		return campaign.RunStats{}, false
	}
	return f.out.Stats, true
}

// Generated pairs a registry entry with its produced figure (or error).
type Generated struct {
	Entry Entry
	Fig   *Figure
	Err   error
}

// GenerateAll produces every registered figure at the given scale, fanning
// the generators out across cores. The shared weekend experiment is kicked
// off immediately and computed once via single-flight, so the A/B figures
// all join one run while the single-session figures generate alongside it;
// full regeneration speeds up roughly by core count. Results come back in
// registry (paper) order.
func GenerateAll(ctx context.Context, scale Scale) []Generated {
	entries := All()
	out := make([]Generated, len(entries))
	var wg sync.WaitGroup
	// Start the shared experiment at once rather than when the first A/B
	// generator happens to be scheduled.
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _ = ExperimentOutcomeContext(ctx, scale)
	}()
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := range entries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if err := ctx.Err(); err != nil {
				out[i] = Generated{Entry: entries[i], Err: err}
				return
			}
			fig, err := entries[i].Gen(scale)
			out[i] = Generated{Entry: entries[i], Fig: fig, Err: err}
		}(i)
	}
	wg.Wait()
	return out
}

// windowSeries is one group's per-window metric as a series.
func windowSeries(name string, ws []metrics.Window, f func(metrics.Window) float64) Series {
	ys := make([]float64, len(ws))
	for i, w := range ws {
		ys[i] = f(w)
	}
	return Series{Name: name, Points: windowPoints(ys)}
}

// windowPoints converts a per-window series into labelled points.
func windowPoints(ys []float64) []Point {
	pts := make([]Point, len(ys))
	for i, y := range ys {
		pts[i] = Point{X: metrics.WindowLabel(i), Y: y}
	}
	return pts
}

// classAvg averages a per-window metric over one window class, weighting
// by each window's play-hours.
func classAvg(ws []metrics.Window, c metrics.Class, f func(metrics.Window) float64) float64 {
	var sum, hours float64
	for _, w := range ws {
		if !c.Covers(w.Index) {
			continue
		}
		sum += f(w) * w.PlayHours
		hours += w.PlayHours
	}
	if hours == 0 {
		return 0
	}
	return sum / hours
}
