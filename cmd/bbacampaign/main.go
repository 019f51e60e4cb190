// Command bbacampaign is the front door to every population run, one
// subcommand per mode: run, weekend, arena, worker (see subcommands below,
// or run it without arguments).
//
// Every subcommand that describes a campaign binds the same identity flags
// (campaign.Identity.Bind) and every one that executes sessions the same
// execution flags (execFlags); the rest are the subcommand's own, so a flag
// that does not belong to a mode is "flag provided but not defined" there
// rather than a case in a hand-kept rejection matrix.
//
// A campaign is split into fixed shards (shard-size paired sessions each).
// One process runs the whole campaign, or worker processes join a bbacoord
// coordinator that leases them shard ranges and folds what they deliver;
// either way the final report is byte-identical to a single-threaded run.
// The coordinator is the one way shard results reach another process; the
// bbacollect collector takes players' session events, not shards.
//
//	bbacampaign run -sessions 170000 -faults -checkpoint cp.json -report report.json
//	bbacampaign worker -coord http://host:8407 -batch
//	bbacampaign weekend -scale full -faults
//	bbacampaign arena -algos all -sessions 2000 -json -report arena.json
//
// SIGINT or SIGTERM during run saves a final checkpoint, emits a truncated
// report (marked "truncated": true) and exits non-zero; re-running with the
// same flags and -checkpoint resumes without re-running or double-counting
// any completed shard. Progress — sessions/s, ETA and live per-group deltas —
// and execution stats go to stderr; stdout is deterministic.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"bba/internal/abr"
	"bba/internal/arena"
	"bba/internal/campaign"
	"bba/internal/coord"
	"bba/internal/figures"
	"bba/internal/obs"
)

func main() {
	obs.Main("bbacampaign", func(ctx context.Context) error {
		return env{out: os.Stdout, errw: os.Stderr}.cli(ctx, os.Args[1:])
	})
}

// env is where a subcommand writes.
type env struct {
	out, errw io.Writer
	// progressHook is a test seam: called with every progress snapshot in
	// addition to the stderr printer.
	progressHook func(campaign.Progress)
}

// runFunc is a subcommand's body, called once its flag set has parsed.
type runFunc func(ctx context.Context, e env) error

// subcommands lists the modes; build declares the mode's flags on fs — the
// execution block x among them when the mode executes sessions — and returns
// its body.
var subcommands = []struct {
	name, summary string
	build         func(fs *flag.FlagSet, x *execFlags) runFunc
}{
	{"run", "run a campaign and write its JSON report", buildRun},
	{"weekend", "run the paper's weekend A/B experiment and write its per-window CSV", buildWeekend},
	{"arena", "run an N-way paired tournament and write its table or JSON report", buildArena},
	{"worker", "lease and execute shards for a bbacoord coordinator", buildWorker},
}

// cli is the whole command below main: dispatch on the subcommand, parse
// its flags, run it.
func (e env) cli(ctx context.Context, args []string) error {
	what := "missing subcommand"
	if len(args) > 0 {
		for _, sc := range subcommands {
			if sc.name != args[0] {
				continue
			}
			fs := flag.NewFlagSet("bbacampaign "+sc.name, flag.ContinueOnError)
			fs.SetOutput(e.errw)
			var x execFlags
			run := sc.build(fs, &x)
			if done, err := obs.Parse(fs, args[1:]); done {
				return err
			}
			return x.profiled(run)(ctx, e)
		}
		what = fmt.Sprintf("unknown subcommand %q", args[0])
	}
	fmt.Fprintf(e.errw, "bbacampaign: %s; subcommands:\n", what)
	for _, sc := range subcommands {
		fmt.Fprintf(e.errw, "  %-8s %s\n", sc.name, sc.summary)
	}
	fmt.Fprintln(e.errw, "run 'bbacampaign <subcommand> -h' for its flags")
	return fmt.Errorf("%w: %s", obs.ErrUsage, what)
}

// execFlags is the execution block: how sessions run, never what they
// produce.
type execFlags struct {
	workers       int
	batch         bool
	batchWidth    int
	progressEvery time.Duration
	cpuProfile    string
	memProfile    string
}

func (x *execFlags) bind(fs *flag.FlagSet) {
	fs.IntVar(&x.workers, "workers", 0, "worker goroutines (default GOMAXPROCS; never affects report bytes)")
	fs.BoolVar(&x.batch, "batch", false, "advance -batch-width paired draws at a time per worker (byte-identical report)")
	fs.IntVar(&x.batchWidth, "batch-width", 0, "paired draws in flight per worker with -batch (default 8)")
	fs.DurationVar(&x.progressEvery, "progress-every", 2*time.Second, "progress line interval on stderr (0 disables)")
	fs.StringVar(&x.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&x.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
}

// config resolves the identity and lays the execution block over it.
func (x *execFlags) config(id campaign.Identity, e env) (campaign.Config, error) {
	cfg, err := id.Config()
	if err != nil {
		return cfg, err
	}
	cfg.Parallelism = x.workers
	cfg.Batch = x.batch
	cfg.BatchWidth = x.batchWidth
	cfg.Progress = e.progressPrinter(x.progressEvery)
	return cfg, nil
}

// profiled wraps a subcommand body in the profiles the flags ask for (none
// when the subcommand did not bind them).
func (x *execFlags) profiled(run runFunc) runFunc {
	return func(ctx context.Context, e env) error {
		if x.cpuProfile != "" {
			f, err := os.Create(x.cpuProfile)
			if err != nil {
				return err
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				f.Close()
				return err
			}
			defer func() {
				pprof.StopCPUProfile()
				if err := f.Close(); err != nil {
					fmt.Fprintln(e.errw, "bbacampaign: cpuprofile:", err)
				}
			}()
		}
		if x.memProfile != "" {
			defer func() {
				err := writeReport(nil, x.memProfile, func(w io.Writer) error {
					runtime.GC()
					return pprof.Lookup("allocs").WriteTo(w, 0)
				})
				if err != nil {
					fmt.Fprintln(e.errw, "bbacampaign: memprofile:", err)
				}
			}()
		}
		return run(ctx, e)
	}
}

func bindReport(fs *flag.FlagSet) *string {
	return fs.String("report", "", "output path (default stdout)")
}

func buildRun(fs *flag.FlagSet, x *execFlags) runFunc {
	id := campaign.FlagDefaults()
	id.Bind(fs)
	x.bind(fs)
	checkpoint := fs.String("checkpoint", "", "checkpoint file path (written periodically and on exit; resumed from when present)")
	checkpointEvery := fs.Int("checkpoint-every", 8, "completed shards between checkpoint writes")
	report := bindReport(fs)

	return func(ctx context.Context, e env) error {
		cfg, err := x.config(id, e)
		if err != nil {
			return err
		}
		cfg.CheckpointPath, cfg.CheckpointEvery = *checkpoint, *checkpointEvery
		if *checkpoint != "" {
			if cp, err := campaign.LoadCheckpoint(*checkpoint); err == nil {
				cfg.Resume = cp
				fmt.Fprintf(e.errw, "resuming from %s: %d shards (%d sessions) already recorded\n",
					*checkpoint, cp.CompletedShards(), cp.SessionsDone())
			} else if !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}

		res, runErr := campaign.RunContext(ctx, cfg)
		if res != nil {
			res.Stats.WriteSummary(e.errw, "campaign", fmt.Sprintf(", peak pending %d shards", res.Stats.PeakPending))
		}
		if runErr != nil {
			// A cancelled run still has a resumable checkpoint and a best-effort
			// truncated report; anything else is a hard failure.
			if errors.Is(runErr, context.Canceled) && res != nil && res.Checkpoint != nil {
				if trunc, err := campaign.TruncatedReport(res.Checkpoint); err == nil {
					if err := writeReport(e.out, *report, trunc.WriteJSON); err != nil {
						return err
					}
				}
				if *checkpoint != "" {
					fmt.Fprintf(e.errw, "interrupted: checkpoint saved to %s; rerun the same command to resume\n", *checkpoint)
				}
				return fmt.Errorf("interrupted after %d shards: %w", res.Checkpoint.CompletedShards(), runErr)
			}
			return runErr
		}
		return writeReport(e.out, *report, res.Report.WriteJSON)
	}
}

func buildWeekend(fs *flag.FlagSet, x *execFlags) runFunc {
	// The weekend is a campaign whose identity the experiment scale picks:
	// -scale presets the three flags that size it, the rest of the identity
	// block applies as everywhere.
	quick := figures.ExperimentConfig(figures.Quick)
	id := quick.Identity()
	id.FaultSeed = figures.ExperimentSeed
	id.Bind(fs)
	x.bind(fs)
	fs.Func("scale", "experiment scale: quick (default) or full; presets -days, -shard-size (sessions per two-hour window) and -sessions = days × 12 × shard-size", func(name string) error {
		scale, err := figures.ParseScale(name)
		if err != nil {
			return err
		}
		sized := figures.ExperimentConfig(scale)
		id.Days, id.ShardSize, id.Sessions = sized.Days, sized.ShardSize, sized.Sessions
		return nil
	})

	return func(ctx context.Context, e env) error {
		cfg, err := x.config(id, e)
		if err != nil {
			return err
		}
		o, err := campaign.RunWeekend(ctx, cfg)
		if err != nil {
			return err
		}
		o.Stats.WriteSummary(e.errw, "weekend experiment", "")
		return o.WriteCSV(e.out)
	}
}

func buildArena(fs *flag.FlagSet, x *execFlags) runFunc {
	id := campaign.FlagDefaults()
	id.Sessions = 2000
	id.Bind(fs)
	fs.Lookup("algos").Usage += "; here the entrants: default " + fmt.Sprint(arena.DefaultField) + ", 'all' the whole registry"
	x.bind(fs)
	jsonOut := fs.Bool("json", false, "emit the full JSON report instead of the table")
	list := fs.Bool("list", false, "list registered algorithms and exit")
	report := bindReport(fs)

	return func(ctx context.Context, e env) error {
		if *list {
			for _, n := range abr.Names() {
				fmt.Fprintln(e.out, n)
			}
			return nil
		}
		switch {
		case len(id.Groups) == 0:
			id.Groups = arena.DefaultField
		case len(id.Groups) == 1 && id.Groups[0] == "all":
			id.Groups = abr.Names()
		}
		cfg, err := x.config(id, e)
		if err != nil {
			return err
		}
		r, err := arena.RunContext(ctx, arena.Config{Campaign: cfg, Entrants: id.Groups})
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeReport(e.out, *report, r.WriteJSON)
		}
		return writeReport(e.out, *report, r.WriteTable)
	}
}

// buildWorker joins a coordinator and executes leased shard ranges until
// the campaign completes. The report is the coordinator's product; this
// process only prints its own execution stats.
func buildWorker(fs *flag.FlagSet, x *execFlags) runFunc {
	x.bind(fs)
	coordURL := fs.String("coord", "", "coordinator URL (e.g. http://host:8407); required")
	name := fs.String("worker-name", "", "stable worker name (default host-pid)")

	return func(ctx context.Context, e env) error {
		if *coordURL == "" {
			return errors.New("worker requires -coord (the coordinator URL)")
		}
		wcfg := coord.WorkerConfig{
			URL:         *coordURL,
			Name:        *name,
			Parallelism: x.workers,
			Batch:       x.batch,
			BatchWidth:  x.batchWidth,
		}
		if x.progressEvery > 0 {
			wcfg.Progress = func(format string, args ...any) {
				fmt.Fprintf(e.errw, "worker: "+format+"\n", args...)
			}
		}
		ws, err := coord.RunWorker(ctx, wcfg)
		ws.WriteSummary(e.errw, "worker", fmt.Sprintf(", %d leases, %d stolen, %d duplicate deliveries", ws.Leases, ws.Stolen, ws.Duplicates))
		return err
	}
}

// writeReport writes one output document to path, or to out when path is
// empty. A file is closed before success is reported: a short write must
// not exit 0.
func writeReport(out io.Writer, path string, write func(io.Writer) error) error {
	if path == "" {
		return write(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progressPrinter returns a Progress callback that writes a throttled
// status line to stderr: shard and session counts, sessions/s, ETA and the
// live rebuffer-rate delta of each arm against the control. The test hook
// sees every snapshot; with every 0 it is all that runs.
func (e env) progressPrinter(every time.Duration) func(campaign.Progress) {
	if every <= 0 {
		return e.progressHook
	}
	w := e.errw
	var last time.Duration
	return func(p campaign.Progress) {
		if e.progressHook != nil {
			e.progressHook(p)
		}
		if p.Elapsed-last < every && p.SessionsDone < p.SessionsTotal {
			return
		}
		last = p.Elapsed
		fmt.Fprintf(w, "shard %d/%d  sessions %d/%d  %.0f/s  eta %v",
			p.ShardsDone, p.ShardsTotal, p.SessionsDone, p.SessionsTotal,
			p.SessionsPerSec, p.ETA.Round(time.Second))
		for i, g := range p.Groups {
			if i == 0 {
				fmt.Fprintf(w, "  [%s %.2f reb/hr", g.Name, g.RebufferRate)
				continue
			}
			fmt.Fprintf(w, " | %s %.2f", g.Name, g.RebufferRate)
			if g.VsControl > 0 {
				fmt.Fprintf(w, " (%.0f%%)", 100*g.VsControl)
			}
		}
		if len(p.Groups) > 0 {
			fmt.Fprint(w, "]")
		}
		fmt.Fprintln(w)
	}
}
