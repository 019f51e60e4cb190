// Command abtest runs the weekend-scale A/B experiment and regenerates the
// paper's figures as text tables. The experiment is a campaign in the
// Weekend layout (campaign.RunWeekend): the same shard kernel, worker pool
// and fold as bbacampaign, with every session retained for the per-window
// aggregates. Figure generation fans out across cores with the shared
// weekend experiment computed once; SIGINT cancels a run in flight, marks
// any partial output "# TRUNCATED" and exits non-zero. After any path that
// runs the weekend experiment, the wall-clock time and simulated
// sessions/sec are reported on stderr.
//
// Examples:
//
//	abtest                       # every figure, quick scale
//	abtest -fig Fig18SteadyStateRate
//	abtest -scale full -experiments-md > EXPERIMENTS.md
//	abtest -stream-agg           # the weekend campaign's per-group report
//	abtest -list
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/campaign"
	"bba/internal/faults"
	"bba/internal/figures"
	"bba/internal/obs"
)

func main() {
	var (
		scaleName = flag.String("scale", "quick", "experiment scale: quick or full")
		figName   = flag.String("fig", "", "regenerate a single figure by name (see -list)")
		list      = flag.Bool("list", false, "list every reproducible figure and exit")
		mdOut     = flag.Bool("experiments-md", false, "emit the EXPERIMENTS.md body to stdout")
		csvOut    = flag.Bool("csv", false, "emit the weekend experiment's per-window aggregates as CSV")
		faultsOn  = flag.Bool("faults", false, "replay the weekend experiment under the standard fault schedule and emit its CSV (fault counters go to stderr)")
		streamAgg = flag.Bool("stream-agg", false, "run the weekend experiment as a plain campaign (constant memory, no per-window aggregates) and emit the report's per-group JSON")
		groups    = flag.String("groups", "", "comma-separated experiment arms for -csv/-faults/-stream-agg (default the paper's standard groups); registered: "+strings.Join(abr.Names(), ", "))
	)
	flag.Parse()

	// SIGINT/SIGTERM cancels the experiment and figure generation
	// promptly: the context reaches every campaign worker's per-round check.
	obs.Main("abtest", func(ctx context.Context) error {
		return run(ctx, os.Stdout, *scaleName, *figName, *groups, *list, *mdOut, *csvOut, *faultsOn, *streamAgg)
	})
}

func run(ctx context.Context, out io.Writer, scaleName, figName, groups string, list, mdOut, csvOut, faultsOn, streamAgg bool) error {
	var scale figures.Scale
	switch scaleName {
	case "quick":
		scale = figures.Quick
	case "full":
		scale = figures.Full
	default:
		return fmt.Errorf("unknown scale %q (want quick or full)", scaleName)
	}

	if list {
		for _, e := range figures.All() {
			fmt.Fprintf(out, "%-28s %s\n", e.Name, e.Paper)
		}
		return nil
	}

	err := dispatch(ctx, out, scale, figName, groups, mdOut, csvOut, faultsOn, streamAgg)
	// A canceled context can reach here two ways: dispatch surfaces the
	// cancellation itself, or — because the figure cache returns completed
	// outcomes regardless of ctx — dispatch succeeds with output written.
	// Either way an interrupted run must not masquerade as a normal one:
	// mark whatever was written truncated and exit non-zero.
	if ctxErr := ctx.Err(); ctxErr != nil {
		fmt.Fprintln(out, "# TRUNCATED: run interrupted; output above is incomplete")
		if err == nil {
			err = ctxErr
		}
		return fmt.Errorf("interrupted: %w", err)
	}
	return err
}

func dispatch(ctx context.Context, out io.Writer, scale figures.Scale, figName, groups string, mdOut, csvOut, faultsOn, streamAgg bool) error {
	defer reportExperimentStats(scale)

	// -groups swaps the experiment arms on the run-producing paths; any
	// registered algorithm can stand in for the paper's standard groups.
	arms, err := parseGroups(groups)
	if err != nil {
		return err
	}

	if streamAgg {
		return runStreamAgg(ctx, out, scale, arms)
	}

	if faultsOn {
		// The fault replay is the clean weekend population under the
		// standard fault weather; it is never cached, so its stats (and
		// the fault counters) are printed directly.
		cfg := figures.ExperimentConfig(scale)
		cfg.Groups = arms
		fc := faults.DefaultScheduleConfig()
		cfg.Faults = &fc
		cfg.FaultSeed = figures.ExperimentSeed
		return runWeekendCSV(ctx, out, cfg)
	}

	if mdOut {
		return figures.WriteMarkdownContext(ctx, out, scale)
	}

	if csvOut {
		if arms != nil {
			// Custom arms bypass the shared cached weekend experiment.
			cfg := figures.ExperimentConfig(scale)
			cfg.Groups = arms
			return runWeekendCSV(ctx, out, cfg)
		}
		o, err := figures.ExperimentOutcomeContext(ctx, scale)
		if err != nil {
			return err
		}
		return o.WriteCSV(out)
	}

	if figName != "" {
		entry, ok := figures.Lookup(figName)
		if !ok {
			return fmt.Errorf("unknown figure %q (try -list)", figName)
		}
		fig, err := entry.Gen(scale)
		if err != nil {
			return err
		}
		return fig.WriteTable(out)
	}

	for _, g := range figures.GenerateAll(ctx, scale) {
		if g.Err != nil {
			return fmt.Errorf("%s: %w", g.Entry.Name, g.Err)
		}
		if err := g.Fig.WriteTable(out); err != nil {
			return err
		}
		fmt.Fprintln(out)
	}
	return nil
}

// runWeekendCSV runs an uncached variant of the weekend experiment and
// emits its per-window CSV, with the run's stats on stderr.
func runWeekendCSV(ctx context.Context, out io.Writer, cfg campaign.Config) error {
	o, err := campaign.RunWeekend(ctx, cfg)
	if err != nil {
		return err
	}
	printRunStats(o.Stats)
	return o.WriteCSV(out)
}

// runStreamAgg runs the weekend experiment as a plain campaign — no raw
// session retention, every session folded into its shard's per-group
// constant-memory accumulators — and emits the report's per-group
// aggregates as JSON.
func runStreamAgg(ctx context.Context, out io.Writer, scale figures.Scale, arms []abtest.Group) error {
	cfg := figures.ExperimentConfig(scale)
	cfg.Groups = arms
	o, err := campaign.RunContext(ctx, cfg)
	if err != nil {
		return err
	}
	printRunStats(o.Stats)
	return writeJSON(out, o.Report.Groups)
}

// parseGroups resolves a comma-separated -groups list against the
// algorithm registry; empty means "keep the path's default arms" (nil).
func parseGroups(groups string) ([]abtest.Group, error) {
	if groups == "" {
		return nil, nil
	}
	var names []string
	for _, name := range strings.Split(groups, ",") {
		if name = strings.TrimSpace(name); name != "" {
			names = append(names, name)
		}
	}
	return abtest.Groups(names...)
}

func writeJSON(out io.Writer, v any) error {
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// reportExperimentStats prints the weekend experiment's wall-clock time and
// simulated-session throughput to stderr, when one ran. Full-scale runs
// read their speedup directly from this line.
func reportExperimentStats(scale figures.Scale) {
	stats, ok := figures.ExperimentStats(scale)
	if !ok {
		return
	}
	printRunStats(stats)
}

// printRunStats writes one run's wall-clock line, and — when any fault
// activity occurred — its fault-injection counters, to stderr.
func printRunStats(stats campaign.RunStats) {
	fmt.Fprintf(os.Stderr, "weekend experiment: %d sessions in %v (%.0f sessions/s, parallelism %d)\n",
		stats.PlayerSessions, stats.Elapsed.Round(time.Millisecond), stats.SessionsPerSecond(), stats.Parallelism)
	if stats.Faults > 0 || stats.Retries > 0 || stats.Degradations > 0 || stats.Failovers > 0 {
		fmt.Fprintf(os.Stderr, "fault injection: %d faults, %d retries, %d degradations, %d failovers\n",
			stats.Faults, stats.Retries, stats.Degradations, stats.Failovers)
	}
}
