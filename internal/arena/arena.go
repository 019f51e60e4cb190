// Package arena runs N-way paired tournaments between registered ABR
// algorithms: every entrant plays the same (user, trace, fault-weather)
// draw for every seed, so head-to-head differences are pure algorithm
// effects — the paper's paired A/B design generalized from arms-vs-control
// to a full round-robin.
//
// Entrants become campaign groups (per-entrant marginals are ordinary
// GroupReports) and the pairwise state is the campaign's paired comparison,
// campaign.Pairs, so reports are byte-identical at any worker count.
package arena

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"text/tabwriter"

	"bba/internal/abtest"
	"bba/internal/campaign"
	"bba/internal/metrics"
	"bba/internal/stats"
)

// maxEntrants bounds the field, and so the pairwise state every shard
// carries: 23 entrants are 253 pairs.
const maxEntrants = 23

// DefaultField is the tournament run when none is named: the paper's
// production-tuned estimator Control and its champion BBA-2 against the
// strongest follow-on rivals — BOLA (Lyapunov buffer control), a smoothed
// throughput rule, and the dash.js-style hybrid of the two.
var DefaultField = []string{"Control", "BBA-2", "BOLA", "SmoothThroughput", "Hybrid"}

// Config describes one tournament: a campaign and who plays in it. The zero
// Campaign plus Entrants is a runnable clean arena.
type Config struct {
	// Campaign is the population every entrant streams and how it executes.
	// Groups and NewExtra are the arena's to set, and extras are not
	// checkpointed, so the campaign must not be resumed.
	Campaign campaign.Config
	// Entrants are registered algorithm names (abr.Names()), 2–23 of them;
	// every unordered pair becomes a head-to-head match.
	Entrants []string
}

// Run executes the tournament. See RunContext.
func Run(cfg Config) (*Report, error) { return RunContext(context.Background(), cfg) }

// RunContext runs the tournament with cancellation: every entrant streams
// every drawn session, the campaign layer folds per-entrant marginals and
// the paired comparison folds pairwise deltas, both in shard-index order,
// so the report is byte-identical at any Parallelism.
func RunContext(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Entrants) < 2 {
		return nil, fmt.Errorf("arena: %d entrants; a tournament needs at least 2", len(cfg.Entrants))
	}
	if len(cfg.Entrants) > maxEntrants {
		return nil, fmt.Errorf("arena: %d entrants exceeds the maximum %d", len(cfg.Entrants), maxEntrants)
	}
	seen := map[string]bool{}
	for _, e := range cfg.Entrants {
		if seen[e] {
			return nil, fmt.Errorf("arena: entrant %q listed twice", e)
		}
		seen[e] = true
	}
	groups, err := abtest.Groups(cfg.Entrants...)
	if err != nil {
		return nil, err
	}
	ccfg := cfg.Campaign
	ccfg.Groups = groups
	ccfg.NewExtra = func() campaign.Extra { return campaign.NewPairs(cfg.Entrants) }

	out, err := campaign.RunContext(ctx, ccfg)
	if err != nil {
		return nil, err
	}
	return buildReport(cfg.Entrants, out.Report, out.Extra.(*campaign.Pairs)), nil
}

// ReportSchema identifies the arena report file format.
const ReportSchema = "bba-arena-report/v2"

// Delta summarizes one metric's per-draw A−B differences with a 95% CI on
// their mean — the head-to-head evidence a pairing reports. A CI excluding
// zero is a significant difference at that level.
type Delta struct {
	N      int64   `json:"n"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	CI95Lo float64 `json:"ci95_lo"`
	CI95Hi float64 `json:"ci95_hi"`
}

// Significant reports whether the delta's CI excludes zero.
func (d Delta) Significant() bool {
	return (d.CI95Lo > 0 && d.CI95Hi > 0) || (d.CI95Lo < 0 && d.CI95Hi < 0)
}

// MatchReport is one pairing's final head-to-head result; deltas are A−B.
type MatchReport struct {
	A        string `json:"a"`
	B        string `json:"b"`
	Sessions int64  `json:"sessions"`
	WinsA    int64  `json:"wins_a"`
	WinsB    int64  `json:"wins_b"`
	Ties     int64  `json:"ties"`
	// WinRateA is WinsA over decided sessions (ties excluded); 0.5 when
	// nothing was decided.
	WinRateA           float64 `json:"win_rate_a"`
	DQoEPerPlayhour    Delta   `json:"d_qoe_per_playhour"`
	DRebufferRate      Delta   `json:"d_rebuffer_rate"`
	DAvgRateKbps       Delta   `json:"d_avg_rate_kbps"`
	DSwitchesPerPlayhr Delta   `json:"d_switches_per_playhour"`
	DStartupRateKbps   Delta   `json:"d_startup_rate_kbps"`
}

// Report is the tournament's final aggregate: the per-entrant marginals
// (ordinary campaign GroupReports) plus every pairing's head-to-head
// deltas. Its JSON bytes are independent of worker count.
type Report struct {
	Schema   string           `json:"schema"`
	Entrants []string         `json:"entrants"`
	Campaign *campaign.Report `json:"campaign"`
	Matches  []MatchReport    `json:"matches"`
}

func buildReport(entrants []string, cr *campaign.Report, ps *campaign.Pairs) *Report {
	r := &Report{
		Schema:   ReportSchema,
		Entrants: entrants,
		Campaign: cr,
	}
	for _, p := range ps.List() {
		all := &p.By[metrics.AllWindows]
		mr := MatchReport{
			A:        p.A,
			B:        p.B,
			Sessions: p.Draws,
			WinsA:    p.WinsA,
			WinsB:    p.WinsB,
			Ties:     p.Ties,
			WinRateA: 0.5,

			DQoEPerPlayhour:    delta(all[campaign.MetricQoE]),
			DRebufferRate:      delta(all[campaign.MetricRebuffer]),
			DAvgRateKbps:       delta(all[campaign.MetricAvgRate]),
			DSwitchesPerPlayhr: delta(all[campaign.MetricSwitch]),
			DStartupRateKbps:   delta(all[campaign.MetricStartup]),
		}
		if decided := p.WinsA + p.WinsB; decided > 0 {
			mr.WinRateA = float64(p.WinsA) / float64(decided)
		}
		r.Matches = append(r.Matches, mr)
	}
	return r
}

func delta(d stats.Welford) Delta {
	out := Delta{N: d.N, Mean: d.Mean, StdDev: d.StdDev(), Min: d.Min, Max: d.Max}
	out.CI95Lo, out.CI95Hi = d.MeanCI95()
	return out
}

// WriteJSON writes the report as indented JSON with a fixed field order —
// the byte form the determinism test compares.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable writes the human-readable tournament summary: per-entrant
// marginals, then each pairing's head-to-head deltas with CIs. A trailing
// "*" marks a delta whose 95% CI excludes zero.
func (r *Report) WriteTable(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "arena: %d entrants, %d paired draws\n\n", len(r.Entrants), r.Campaign.Sessions)

	tw := tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "entrant\tsessions\trebuf/hr\tavg kb/s\tswitch/hr\tqoe/hr")
	for _, g := range r.Campaign.Groups {
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.0f\t%.1f\t%.1f\n",
			g.Name, g.Sessions, g.RebufferRatePooled, g.AvgRateKbps.Mean,
			g.SwitchesPerPlayhour.Mean, g.QoEPerPlayhour.Mean)
	}
	tw.Flush()

	fmt.Fprintf(bw, "\nhead-to-head (A−B deltas, mean [95%% CI], * = CI excludes 0)\n")
	tw = tabwriter.NewWriter(bw, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "match\twins A−B (ties)\tΔqoe/hr\tΔrebuf/hr\tΔkb/s\tΔswitch/hr")
	for _, m := range r.Matches {
		fmt.Fprintf(tw, "%s vs %s\t%d−%d (%d)\t%s\t%s\t%s\t%s\n",
			m.A, m.B, m.WinsA, m.WinsB, m.Ties,
			fmtDelta(m.DQoEPerPlayhour, "%.2f"),
			fmtDelta(m.DRebufferRate, "%.3f"),
			fmtDelta(m.DAvgRateKbps, "%.0f"),
			fmtDelta(m.DSwitchesPerPlayhr, "%.1f"))
	}
	tw.Flush()
	return bw.Flush()
}

func fmtDelta(d Delta, format string) string {
	s := fmt.Sprintf(format+" ["+format+", "+format+"]", d.Mean, d.CI95Lo, d.CI95Hi)
	if d.Significant() {
		s += "*"
	}
	return s
}
