// Command bbarena runs an N-way paired tournament between registered ABR
// algorithms: every entrant streams the same (user, trace, fault-weather)
// draw for every seed, and each unordered pair reports head-to-head win
// counts and paired-delta confidence intervals alongside the ordinary
// per-entrant marginals. The report is byte-identical at any -workers.
//
// Examples:
//
//	bbarena                                   # default field, table to stdout
//	bbarena -algos 'BBA-2,BOLA,SmoothThroughput' -sessions 5000 -faults
//	bbarena -algos all -sessions 2000 -json -report arena.json
//	bbarena -list
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"bba/internal/abr"
	"bba/internal/arena"
	"bba/internal/campaign"
	"bba/internal/faults"
	"bba/internal/obs"
)

type options struct {
	algos     string
	sessions  int
	shardSize int
	days      int
	seed      int64
	faultSeed int64
	faultsOn  bool
	workers   int
	sketch    int
	jsonOut   bool
	report    string
	list      bool
	progress  time.Duration
}

// defaultField is the tournament run without -algos: the paper's champion
// against its strongest estimator-based rivals.
var defaultField = []string{"Control", "BBA-2", "BOLA", "SmoothThroughput", "Hybrid"}

func main() {
	var o options
	flag.StringVar(&o.algos, "algos", "", "comma-separated entrants, or 'all'; registered: "+strings.Join(abr.Names(), ", "))
	flag.IntVar(&o.sessions, "sessions", 2000, "paired draws (each streamed once per entrant)")
	flag.IntVar(&o.shardSize, "shard-size", 1024, "paired draws per shard (part of the tournament identity)")
	flag.IntVar(&o.days, "days", 3, "simulated calendar days")
	flag.Int64Var(&o.seed, "seed", 2014, "tournament seed")
	flag.Int64Var(&o.faultSeed, "fault-seed", 2014, "fault-weather seed (with -faults)")
	flag.BoolVar(&o.faultsOn, "faults", false, "run every draw under the standard fault schedule")
	flag.IntVar(&o.workers, "workers", 0, "worker goroutines (default GOMAXPROCS; never affects report bytes)")
	flag.IntVar(&o.sketch, "sketch", 512, "quantile-sketch size per metric")
	flag.BoolVar(&o.jsonOut, "json", false, "emit the full JSON report instead of the table")
	flag.StringVar(&o.report, "report", "", "output path (default stdout)")
	flag.BoolVar(&o.list, "list", false, "list registered algorithms and exit")
	flag.DurationVar(&o.progress, "progress-every", 2*time.Second, "progress line interval on stderr (0 disables)")
	flag.Parse()

	obs.Main("bbarena", func(ctx context.Context) error {
		return run(ctx, os.Stdout, os.Stderr, o)
	})
}

func run(ctx context.Context, out, errw io.Writer, o options) error {
	if o.list {
		for _, n := range abr.Names() {
			fmt.Fprintln(out, n)
		}
		return nil
	}

	entrants, err := parseEntrants(o.algos)
	if err != nil {
		return err
	}

	cfg := arena.Config{
		Seed:        o.seed,
		Sessions:    o.sessions,
		Entrants:    entrants,
		ShardSize:   o.shardSize,
		Days:        o.days,
		Parallelism: o.workers,
		SketchSize:  o.sketch,
	}
	if o.faultsOn {
		fc := faults.DefaultScheduleConfig()
		cfg.Faults = &fc
		cfg.FaultSeed = o.faultSeed
	}
	if o.progress > 0 {
		cfg.Progress = progressPrinter(errw, o.progress)
	}

	r, err := arena.RunContext(ctx, cfg)
	if err != nil {
		return err
	}

	w := out
	if o.report != "" {
		f, err := os.Create(o.report)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if o.jsonOut {
		return r.WriteJSON(w)
	}
	return r.WriteTable(w)
}

// parseEntrants resolves -algos: empty means the default field, "all" the
// whole registry, otherwise a comma-separated list of registered names.
func parseEntrants(algos string) ([]string, error) {
	switch algos {
	case "":
		return defaultField, nil
	case "all":
		return abr.Names(), nil
	}
	var entrants []string
	for _, name := range strings.Split(algos, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if _, err := abr.New(name); err != nil {
			return nil, err
		}
		entrants = append(entrants, name)
	}
	return entrants, nil
}

func progressPrinter(w io.Writer, every time.Duration) func(campaign.Progress) {
	var last time.Duration
	return func(p campaign.Progress) {
		if p.Elapsed-last < every && p.SessionsDone < p.SessionsTotal {
			return
		}
		last = p.Elapsed
		fmt.Fprintf(w, "shard %d/%d  draws %d/%d  %.0f/s  eta %v\n",
			p.ShardsDone, p.ShardsTotal, p.SessionsDone, p.SessionsTotal,
			p.SessionsPerSec, p.ETA.Round(time.Second))
	}
}
