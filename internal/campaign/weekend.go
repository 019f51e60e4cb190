package campaign

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"sort"

	"bba/internal/metrics"
	"bba/internal/stats"
)

// WeekendConfig returns the paper's weekend A/B experiment as a campaign:
// days of twelve two-hour windows, sessionsPerWindow paired sessions in
// each, one shard per (day, window) under the Weekend layout. Callers set
// Groups, Population or Faults on the result like on any campaign.
func WeekendConfig(seed int64, days, sessionsPerWindow int) Config {
	return Config{
		Seed:      seed,
		Days:      days,
		Sessions:  days * metrics.WindowsPerDay * sessionsPerWindow,
		ShardSize: sessionsPerWindow,
		Layout:    Weekend,
	}
}

// WeekendOutcome is what the paper's figures read off a weekend experiment:
// every group's two-hour-window aggregates and the raw per-session metrics
// behind them.
type WeekendOutcome struct {
	// Windows holds each group's per-two-hour-window aggregates.
	Windows map[string][]metrics.Window
	// Sessions holds each group's per-session metrics in calendar order
	// (day, window, session), for significance testing.
	Sessions map[string][]metrics.Session
	// Stats describes the run's execution.
	Stats RunStats
}

// sessionLog is the Extra that retains every group's sessions: a shard logs
// its draws in offset order and shards merge in shard-index order, so each
// group's log is in global session order at any worker count or width.
type sessionLog struct {
	groups [][]metrics.Session
}

func (l *sessionLog) AddSessionSet(_ int64, ms []metrics.Session) error {
	for gi, s := range ms {
		l.groups[gi] = append(l.groups[gi], s)
	}
	return nil
}

func (l *sessionLog) Merge(o Extra) error {
	for gi, ss := range o.(*sessionLog).groups {
		l.groups[gi] = append(l.groups[gi], ss...)
	}
	return nil
}

// RunWeekend runs a Weekend-layout campaign (see WeekendConfig) retaining
// every session, and aggregates each group's sessions into windows in
// calendar order (metrics.Aggregate, the figures' float operations in the
// figures' order) — so the outcome is identical at any Parallelism and
// kernel width. A cancelled or failed run returns the error and no outcome.
func RunWeekend(ctx context.Context, cfg Config) (*WeekendOutcome, error) {
	if cfg.Layout != Weekend {
		return nil, fmt.Errorf("campaign: RunWeekend needs the weekend layout, have %q", cfg.Layout)
	}
	cfg.applyDefaults()
	cfg.NewExtra = func() Extra {
		l := &sessionLog{groups: make([][]metrics.Session, len(cfg.Groups))}
		for gi := range l.groups {
			l.groups[gi] = make([]metrics.Session, 0, cfg.ShardSize)
		}
		return l
	}
	run, err := RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	out := &WeekendOutcome{
		Windows:  make(map[string][]metrics.Window, len(cfg.Groups)),
		Sessions: make(map[string][]metrics.Session, len(cfg.Groups)),
		Stats:    run.Stats,
	}
	for gi, ss := range run.Extra.(*sessionLog).groups {
		name := cfg.Groups[gi].Name
		out.Sessions[name] = ss
		if out.Windows[name], err = metrics.Aggregate(ss); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// WriteCSV emits every group's per-window aggregates as CSV, one row per
// (group, window), for external plotting:
//
//	group,window,sessions,playhours,rebuffers_per_playhour,avg_rate_kbps,
//	steady_rate_kbps,switches_per_playhour,rebuffer_stddev_across_days,
//	qoe_per_playhour
func (o *WeekendOutcome) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "group,window,sessions,playhours,rebuffers_per_playhour,avg_rate_kbps,steady_rate_kbps,switches_per_playhour,rebuffer_stddev_across_days,qoe_per_playhour"); err != nil {
		return err
	}
	groups := make([]string, 0, len(o.Windows))
	for g := range o.Windows {
		groups = append(groups, g)
	}
	sort.Strings(groups)
	for _, g := range groups {
		for _, win := range o.Windows[g] {
			if _, err := fmt.Fprintf(bw, "%s,%d,%d,%.3f,%.4f,%.1f,%.1f,%.2f,%.4f,%.1f\n",
				g, win.Index, win.Sessions, win.PlayHours,
				win.RebuffersPerPlayhour, win.AvgRateKbps, win.SteadyRateKbps,
				win.SwitchesPerPlayhour, win.RebufferRateStdDev, win.QoEPerPlayhour); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// RebufferSamples returns a group's per-session rebuffers-per-playhour
// samples, optionally restricted to a window set (nil = all windows).
func (o *WeekendOutcome) RebufferSamples(group string, windows map[int]bool) []float64 {
	var xs []float64
	for _, s := range o.Sessions[group] {
		if windows != nil && !windows[s.Window] {
			continue
		}
		if s.PlayHours > 0 {
			xs = append(xs, float64(s.Rebuffers)/s.PlayHours)
		}
	}
	return xs
}

// SignificanceRebuffers runs a Welch t-test on per-session rebuffer rates
// of two groups restricted to a window set — the test behind the paper's
// footnotes 4 and 5 ("the hypothesis ... is not rejected at the 95%
// confidence level").
func (o *WeekendOutcome) SignificanceRebuffers(groupA, groupB string, windows map[int]bool) (stats.TTestResult, error) {
	return stats.WelchTTest(o.RebufferSamples(groupA, windows), o.RebufferSamples(groupB, windows))
}
