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
// every group's two-hour-window aggregates, every pair of groups compared
// draw by draw, and the run's campaign report.
type WeekendOutcome struct {
	// Windows holds each group's per-two-hour-window aggregates.
	Windows map[string][]metrics.Window
	// Pairs compares every pair of groups on the draws they shared.
	Pairs *Pairs
	// Report is the campaign report: each group's session distributions.
	Report *Report
	// Stats describes the run's execution.
	Stats RunStats
}

// weekendFold is RunWeekend's Extra: the paired comparison, plus a shard's
// sessions, which the run's fold streams into each group's windows in
// calendar order and then drops. A shard is one (day, window) and shards
// merge in shard-index order, so every WindowAccum sees its sessions in the
// order Aggregate over the whole log would, while only the merge window's
// shards are ever held.
type weekendFold struct {
	*Pairs
	perShard int
	log      []metrics.Session      // a shard's draws, group-major within each draw
	windows  []*metrics.WindowAccum // per group; only the run's fold adds to them
}

func newWeekendFold(groups []string, perShard int) *weekendFold {
	f := &weekendFold{Pairs: NewPairs(groups), perShard: perShard, windows: make([]*metrics.WindowAccum, len(groups))}
	for gi := range f.windows {
		f.windows[gi] = metrics.NewWindowAccum()
	}
	return f
}

func (f *weekendFold) AddSessionSet(global int64, ms []metrics.Session) error {
	if f.log == nil {
		f.log = make([]metrics.Session, 0, f.perShard*len(ms))
	}
	f.log = append(f.log, ms...)
	return f.Pairs.AddSessionSet(global, ms)
}

func (f *weekendFold) Merge(o Extra) error {
	s := o.(*weekendFold)
	for gi, wa := range f.windows {
		for i := gi; i < len(s.log); i += len(f.groups) {
			if err := wa.Add(s.log[i]); err != nil {
				return err
			}
		}
	}
	s.log = nil
	return f.Pairs.Merge(s.Pairs)
}

// RunWeekend runs a Weekend-layout campaign (see WeekendConfig), folding
// each group's sessions into windows in calendar order (metrics.WindowAccum,
// the figures' float operations in the figures' order) and every pair of
// groups into its paired sample — so the outcome is identical at any
// Parallelism and kernel width, and memory does not grow with the run. A
// cancelled or failed run returns the error and no outcome.
func RunWeekend(ctx context.Context, cfg Config) (*WeekendOutcome, error) {
	if cfg.Layout != Weekend {
		return nil, fmt.Errorf("campaign: RunWeekend needs the weekend layout, have %q", cfg.Layout)
	}
	cfg.applyDefaults()
	names := cfg.identity().Groups
	cfg.NewExtra = func() Extra { return newWeekendFold(names, cfg.ShardSize) }
	run, err := RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	fold := run.Extra.(*weekendFold)
	out := &WeekendOutcome{
		Windows: make(map[string][]metrics.Window, len(names)),
		Pairs:   fold.Pairs,
		Report:  run.Report,
		Stats:   run.Stats,
	}
	for gi, name := range names {
		out.Windows[name] = fold.windows[gi].Windows()
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

// SignificanceRebuffers is the paired test of two groups' pooled rebuffer
// rates over one window class — the test behind the paper's footnotes 4
// and 5 ("the hypothesis ... is not rejected at the 95% confidence level").
// Its interval is at 90%, the level the figures' notes print. It returns
// stats.ErrUndecided, with the draw count, when either group never
// rebuffered in the class.
func (o *WeekendOutcome) SignificanceRebuffers(groupA, groupB string, c metrics.Class) (stats.RatioTest, error) {
	for i := range o.Pairs.pairs {
		switch p := &o.Pairs.pairs[i]; {
		case p.A == groupA && p.B == groupB:
			return p.Rebuffers[c].Test(0.9)
		case p.A == groupB && p.B == groupA:
			return p.Rebuffers[c].Swapped().Test(0.9)
		}
	}
	return stats.RatioTest{}, fmt.Errorf("campaign: no pair of groups %q and %q", groupA, groupB)
}
