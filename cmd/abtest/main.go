// Command abtest regenerates the paper's figures as text tables. The
// weekend A/B experiment most of them read is a campaign in the Weekend
// layout (campaign.RunWeekend) — to run it on its own, with other arms or
// under fault weather, use `bbacampaign weekend`. Figure generation fans out
// across cores with the shared weekend experiment computed once; SIGINT
// cancels a run in flight, marks any partial output "# TRUNCATED" and exits
// non-zero. When the weekend experiment ran, its wall-clock time and
// simulated sessions/sec are reported on stderr.
//
// Examples:
//
//	abtest                       # every figure, quick scale
//	abtest -fig Fig18SteadyStateRate
//	abtest -scale full -experiments-md > EXPERIMENTS.md
//	abtest -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"bba/internal/figures"
	"bba/internal/obs"
)

type options struct {
	scale string
	fig   string
	list  bool
	mdOut bool
}

func newFlags(errw io.Writer) (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("abtest", flag.ContinueOnError)
	fs.SetOutput(errw)
	var o options
	fs.StringVar(&o.scale, "scale", "quick", "experiment scale: quick or full")
	fs.StringVar(&o.fig, "fig", "", "regenerate a single figure by name (see -list)")
	fs.BoolVar(&o.list, "list", false, "list every reproducible figure and exit")
	fs.BoolVar(&o.mdOut, "experiments-md", false, "emit the EXPERIMENTS.md body to stdout")
	return fs, &o
}

func main() {
	// SIGINT/SIGTERM cancels the experiment and figure generation
	// promptly: the context reaches every campaign worker's per-round check.
	obs.Main("abtest", func(ctx context.Context) error {
		return cli(ctx, os.Args[1:], os.Stdout, os.Stderr)
	})
}

func cli(ctx context.Context, args []string, out, errw io.Writer) error {
	fs, o := newFlags(errw)
	if done, err := obs.Parse(fs, args); done {
		return err
	}
	scale, err := figures.ParseScale(o.scale)
	if err != nil {
		return err
	}

	if o.list {
		for _, e := range figures.All() {
			fmt.Fprintf(out, "%-28s %s\n", e.Name, e.Paper)
		}
		return nil
	}

	err = dispatch(ctx, out, scale, *o)
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

func dispatch(ctx context.Context, out io.Writer, scale figures.Scale, o options) error {
	defer reportExperimentStats(scale)

	if o.mdOut {
		return figures.WriteMarkdownContext(ctx, out, scale)
	}

	if o.fig != "" {
		entry, ok := figures.Lookup(o.fig)
		if !ok {
			return fmt.Errorf("unknown figure %q (try -list)", o.fig)
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

// reportExperimentStats prints the weekend experiment's wall-clock time and
// simulated-session throughput to stderr, when one ran. Full-scale runs
// read their speedup directly from this line.
func reportExperimentStats(scale figures.Scale) {
	if stats, ok := figures.ExperimentStats(scale); ok {
		stats.WriteSummary(os.Stderr, "weekend experiment", "")
	}
}
