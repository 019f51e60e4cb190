// Command bbacampaign runs a large-scale streaming campaign: the paired A/B
// population at million-session counts with constant memory, deterministic
// sharding and kill-resume checkpointing.
//
// A campaign is split into fixed shards (shard-size paired sessions each).
// One process can run the whole campaign, the shard space can be striped
// across processes with -shards/-shard-of and the per-process checkpoints
// combined afterwards with -merge, or — with -worker -coord — the process
// joins a bbacoord coordinator that leases it shard ranges dynamically;
// every mode produces a final report byte-identical to a single-threaded
// run.
//
// Examples:
//
//	bbacampaign -sessions 170000 -faults -checkpoint cp.json -report report.json
//	bbacampaign -sessions 170000 -shards 4 -shard-of 2 -checkpoint cp2.json
//	bbacampaign -merge cp0.json,cp1.json,cp2.json,cp3.json -report report.json
//	bbacampaign -worker -coord http://host:8407 -batch
//
// SIGINT or SIGTERM saves a final checkpoint, emits a truncated report (marked
// "truncated": true) and exits non-zero; re-running with the same flags and
// -checkpoint resumes without re-running or double-counting any completed
// shard. Progress — sessions/s, ETA and live per-group deltas — streams to
// stderr.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/campaign"
	"bba/internal/collect"
	"bba/internal/coord"
	"bba/internal/faults"
	"bba/internal/obs"
)

type options struct {
	algos           string
	sessions        int
	shardSize       int
	days            int
	seed            int64
	faultSeed       int64
	faultsOn        bool
	batch           bool
	batchWidth      int
	cpuProfile      string
	memProfile      string
	workers         int
	sketch          int
	stripes         int
	stripe          int
	checkpoint      string
	checkpointEvery int
	merge           string
	report          string
	ship            string
	runID           string
	worker          bool
	coordURL        string
	workerName      string
	progressEvery   time.Duration
	// progressHook is a test seam: called with every progress snapshot in
	// addition to the stderr printer.
	progressHook func(campaign.Progress)
	// beforeShard is a test seam for worker mode: called before each leased
	// shard executes; an error abandons the worker mid-lease.
	beforeShard func(shard int) error
}

func main() {
	var o options
	flag.StringVar(&o.algos, "algos", "", "comma-separated experiment arms (default the paper's standard groups; part of the campaign identity); registered: "+strings.Join(abr.Names(), ", "))
	flag.IntVar(&o.sessions, "sessions", 10000, "paired session draws (each streamed once per group)")
	flag.IntVar(&o.shardSize, "shard-size", 1024, "paired sessions per shard (part of the campaign identity)")
	flag.IntVar(&o.days, "days", 3, "simulated calendar days")
	flag.Int64Var(&o.seed, "seed", 2014, "campaign seed")
	flag.Int64Var(&o.faultSeed, "fault-seed", 2014, "fault-weather seed (with -faults)")
	flag.BoolVar(&o.faultsOn, "faults", false, "run every session under the standard fault schedule")
	flag.BoolVar(&o.batch, "batch", false, "execute sessions through the batch kernel (byte-identical report, higher throughput)")
	flag.IntVar(&o.batchWidth, "batch-width", 0, "paired draws in flight per worker with -batch (default 8)")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	flag.StringVar(&o.memProfile, "memprofile", "", "write an allocation profile to this file at exit")
	flag.IntVar(&o.workers, "workers", 0, "worker goroutines (default GOMAXPROCS)")
	flag.IntVar(&o.sketch, "sketch", 512, "quantile-sketch size per metric (part of the campaign identity)")
	flag.IntVar(&o.stripes, "shards", 1, "total process stripes the campaign is split across")
	flag.IntVar(&o.stripe, "shard-of", 0, "this process's stripe index in [0,-shards)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "checkpoint file path (written periodically and on exit; resumed from when present)")
	flag.IntVar(&o.checkpointEvery, "checkpoint-every", 8, "completed shards between checkpoint writes")
	flag.StringVar(&o.merge, "merge", "", "comma-separated stripe checkpoints to merge into a final report (runs nothing)")
	flag.StringVar(&o.report, "report", "", "final report path (default stdout)")
	flag.StringVar(&o.ship, "ship", "", "ship telemetry and shard results to this collector URL (e.g. http://host:8406); the remotely aggregated report is verified byte-for-byte against the local fold")
	flag.StringVar(&o.runID, "run-id", "", "run identifier at the collector (default campaign-<seed>; required with -worker -ship)")
	flag.BoolVar(&o.worker, "worker", false, "run as a fleet worker: lease shard ranges from a coordinator instead of running a local campaign")
	flag.StringVar(&o.coordURL, "coord", "", "coordinator URL for -worker (e.g. http://host:8407)")
	flag.StringVar(&o.workerName, "worker-name", "", "stable worker name for -worker (default host-pid)")
	flag.DurationVar(&o.progressEvery, "progress-every", 2*time.Second, "progress line interval on stderr (0 disables)")
	flag.Parse()

	obs.Main("bbacampaign", func(ctx context.Context) error {
		return run(ctx, os.Stdout, os.Stderr, o)
	})
}

// validateFlags rejects invalid flag combinations up front with a single
// error enumerating every violation, instead of failing mid-run.
func validateFlags(o options) error {
	var bad []string
	if o.worker {
		if o.coordURL == "" {
			bad = append(bad, "-worker requires -coord (the coordinator URL)")
		}
		if o.merge != "" {
			bad = append(bad, "-worker cannot combine with -merge (the coordinator owns the fold; merging is for hand-striped runs)")
		}
		if o.checkpoint != "" {
			bad = append(bad, "-worker cannot combine with -checkpoint (resume state lives in the coordinator; pass -checkpoint to bbacoord)")
		}
		if o.stripes != 1 || o.stripe != 0 {
			bad = append(bad, "-worker cannot combine with -shards/-shard-of (the coordinator owns the shard space)")
		}
		if o.report != "" {
			bad = append(bad, "-worker writes no report; fetch it from the coordinator's /report")
		}
		if o.ship != "" && o.runID == "" {
			bad = append(bad, "-worker -ship requires an explicit -run-id (the campaign comes from the coordinator, so no campaign-<seed> default exists)")
		}
	} else if o.coordURL != "" {
		bad = append(bad, "-coord requires -worker")
	}
	if len(bad) > 0 {
		return fmt.Errorf("invalid flags:\n  - %s", strings.Join(bad, "\n  - "))
	}
	return nil
}

func run(ctx context.Context, out io.Writer, errw io.Writer, o options) error {
	if err := validateFlags(o); err != nil {
		return err
	}
	if o.ship != "" {
		if o.merge != "" {
			return errors.New("-ship and -merge are mutually exclusive: merging is local-only; ship each stripe instead")
		}
		if !o.worker && o.stripes != 1 {
			return errors.New("-ship covers the whole campaign from one process; drop -shards or merge stripe checkpoints locally")
		}
	}
	if o.merge != "" {
		return runMerge(out, o)
	}

	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if o.memProfile != "" {
		defer func() {
			f, err := os.Create(o.memProfile)
			if err != nil {
				fmt.Fprintln(errw, "bbacampaign: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(errw, "bbacampaign: memprofile:", err)
			}
		}()
	}

	if o.worker {
		return runWorker(ctx, errw, o)
	}

	var groups []abtest.Group
	if o.algos != "" {
		var names []string
		for _, name := range strings.Split(o.algos, ",") {
			if name = strings.TrimSpace(name); name != "" {
				names = append(names, name)
			}
		}
		var err error
		if groups, err = abtest.Groups(names...); err != nil {
			return err
		}
	}

	cfg := campaign.Config{
		Groups:          groups,
		Seed:            o.seed,
		Sessions:        o.sessions,
		ShardSize:       o.shardSize,
		Days:            o.days,
		Batch:           o.batch,
		BatchWidth:      o.batchWidth,
		Parallelism:     o.workers,
		SketchSize:      o.sketch,
		Stripe:          o.stripe,
		Stripes:         o.stripes,
		CheckpointPath:  o.checkpoint,
		CheckpointEvery: o.checkpointEvery,
	}
	if o.faultsOn {
		fc := faults.DefaultScheduleConfig()
		cfg.Faults = &fc
		cfg.FaultSeed = o.faultSeed
	}
	if o.checkpoint != "" {
		if cp, err := campaign.LoadCheckpoint(o.checkpoint); err == nil {
			if o.ship != "" {
				return fmt.Errorf("cannot ship a resumed run: shards already in %s would never reach the collector; remove the checkpoint or drop -ship", o.checkpoint)
			}
			cfg.Resume = cp
			fmt.Fprintf(errw, "resuming from %s: %d shards (%d sessions) already recorded\n",
				o.checkpoint, cp.CompletedShards(), cp.SessionsDone())
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	if o.progressEvery > 0 {
		cfg.Progress = progressPrinter(errw, o.progressEvery)
	}
	if o.progressHook != nil {
		printer := cfg.Progress
		cfg.Progress = func(p campaign.Progress) {
			if printer != nil {
				printer(p)
			}
			o.progressHook(p)
		}
	}

	var shipper *collect.Shipper
	runID := o.runID
	if o.ship != "" {
		if runID == "" {
			runID = fmt.Sprintf("campaign-%d", o.seed)
		}
		spill, err := os.MkdirTemp("", "bbaship-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(spill)
		shipper, err = collect.NewShipper(collect.ShipperConfig{
			Addr:    o.ship,
			Run:     runID,
			Session: uint64(os.Getpid()),
			Queue:   collect.QueueConfig{SpillDir: spill},
			Retry:   collect.RetryPolicy{Seed: o.seed},
		})
		if err != nil {
			return err
		}
		defer shipper.Close()
		idJSON, err := json.Marshal(cfg.Identity())
		if err != nil {
			return err
		}
		if err := shipper.ShipRunStart(idJSON); err != nil {
			return err
		}
		fmt.Fprintf(errw, "shipping run %q to %s (session %d)\n", runID, o.ship, os.Getpid())
		cfg.Observer = shipper
		cfg.OnShard = func(shard int, accums []*campaign.GroupAccum) error {
			p, err := json.Marshal(campaign.ShardAccums{Shard: shard, Groups: accums})
			if err != nil {
				return err
			}
			return shipper.ShipShard(p)
		}
	}

	res, runErr := campaign.RunContext(ctx, cfg)
	if res != nil {
		printStats(errw, res.Stats)
	}
	if runErr != nil {
		// A cancelled run still has a resumable checkpoint and a best-effort
		// truncated report; anything else is a hard failure.
		if errors.Is(runErr, context.Canceled) && res != nil && res.Checkpoint != nil {
			if trunc, err := campaign.TruncatedReport(res.Checkpoint); err == nil {
				if err := writeReport(out, o.report, trunc); err != nil {
					return err
				}
			}
			if o.checkpoint != "" {
				fmt.Fprintf(errw, "interrupted: checkpoint saved to %s; rerun the same command to resume\n", o.checkpoint)
			}
			return fmt.Errorf("interrupted after %d shards: %w", res.Checkpoint.CompletedShards(), runErr)
		}
		return runErr
	}

	if res.Report == nil {
		// A stripe subset: the checkpoint is the product; the report comes
		// from -merge once every stripe has run.
		fmt.Fprintf(errw, "stripe %d/%d complete: %d shards in checkpoint; merge all stripes with -merge for the final report\n",
			o.stripe, o.stripes, res.Checkpoint.CompletedShards())
		if o.checkpoint == "" {
			return fmt.Errorf("stripe run without -checkpoint produces no output; pass -checkpoint")
		}
		return nil
	}
	if shipper != nil {
		return finishShipped(ctx, out, errw, o, shipper, runID, res.Report)
	}
	return writeReport(out, o.report, res.Report)
}

// finishShipped completes the run protocol — flush outstanding frames,
// announce run_end, flush again — then fetches the remotely aggregated
// report, verifies it byte-for-byte against the local fold and emits the
// remote bytes as the final report.
func finishShipped(ctx context.Context, out, errw io.Writer, o options, s *collect.Shipper, runID string, local *campaign.Report) error {
	if err := s.Flush(ctx); err != nil {
		return fmt.Errorf("flushing shipped frames: %w", err)
	}
	if err := s.ShipRunEnd(); err != nil {
		return err
	}
	if err := s.Flush(ctx); err != nil {
		return fmt.Errorf("flushing run_end: %w", err)
	}
	if err := s.Close(); err != nil {
		return err
	}
	ss := s.Stats()
	fmt.Fprintf(errw, "shipped %d frames (%d events, %d retries, %d spilled, %d dropped)\n",
		ss.FramesShipped, ss.Events, ss.Retries, ss.Queue.Spilled, ss.FramesDropped)

	remote, err := fetchReport(ctx, o.ship, runID)
	if err != nil {
		return err
	}
	var localBytes bytes.Buffer
	if err := local.WriteJSON(&localBytes); err != nil {
		return err
	}
	if !bytes.Equal(remote, localBytes.Bytes()) {
		return fmt.Errorf("remote report for run %q differs from the local fold — collector state is suspect (mixed runs under one id?)", runID)
	}
	fmt.Fprintln(errw, "remote aggregation verified: report byte-identical to the local fold")
	return writeReportBytes(out, o.report, remote)
}

// fetchReport polls the collector for the finished report. The run_end
// frame was acknowledged before this is called, so anything beyond a brief
// wait means the collector lost state.
func fetchReport(ctx context.Context, base, runID string) ([]byte, error) {
	url := strings.TrimSuffix(base, "/") + "/report/" + runID
	deadline := time.Now().Add(30 * time.Second)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			var body bytes.Buffer
			_, rerr := body.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && rerr == nil {
				return body.Bytes(), nil
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("collector report %s: %s: %s", url, resp.Status, strings.TrimSpace(body.String()))
			}
		} else if time.Now().After(deadline) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

func writeReportBytes(out io.Writer, path string, b []byte) error {
	if path == "" {
		_, err := out.Write(b)
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// runWorker joins a coordinator and executes leased shard ranges until the
// campaign completes. The report is the coordinator's product; this
// process only prints its own execution stats. With -ship, every locally
// completed shard's accumulators are mirrored to a bbacollect collector
// over the frame lane in addition to the coordinator delivery.
func runWorker(ctx context.Context, errw io.Writer, o options) error {
	wcfg := coord.WorkerConfig{
		URL:         o.coordURL,
		Name:        o.workerName,
		Parallelism: o.workers,
		Batch:       o.batch,
		BatchWidth:  o.batchWidth,
		BeforeShard: o.beforeShard,
	}
	if o.progressEvery > 0 {
		wcfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(errw, "worker: "+format+"\n", args...)
		}
	}

	var shipper *collect.Shipper
	if o.ship != "" {
		spill, err := os.MkdirTemp("", "bbaship-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(spill)
		shipper, err = collect.NewShipper(collect.ShipperConfig{
			Addr:    o.ship,
			Run:     o.runID,
			Session: uint64(os.Getpid()),
			Queue:   collect.QueueConfig{SpillDir: spill},
			Retry:   collect.RetryPolicy{Seed: int64(os.Getpid())},
		})
		if err != nil {
			return err
		}
		defer shipper.Close()
		wcfg.OnJoin = func(j coord.JoinResponse) error {
			idJSON, err := json.Marshal(j.Identity)
			if err != nil {
				return err
			}
			if err := shipper.ShipRunStart(idJSON); err != nil {
				return err
			}
			fmt.Fprintf(errw, "mirroring run %q to %s (session %d)\n", o.runID, o.ship, os.Getpid())
			return nil
		}
		wcfg.OnShard = func(shard int, accums []*campaign.GroupAccum) error {
			p, err := json.Marshal(campaign.ShardAccums{Shard: shard, Groups: accums})
			if err != nil {
				return err
			}
			return shipper.ShipShard(p)
		}
	}

	stats, runErr := coord.RunWorker(ctx, wcfg)
	printWorkerStats(errw, stats)
	if runErr != nil {
		return runErr
	}
	if shipper != nil {
		if err := shipper.Flush(ctx); err != nil {
			return fmt.Errorf("flushing shipped frames: %w", err)
		}
		if err := shipper.ShipRunEnd(); err != nil {
			return err
		}
		if err := shipper.Flush(ctx); err != nil {
			return fmt.Errorf("flushing run_end: %w", err)
		}
		if err := shipper.Close(); err != nil {
			return err
		}
		ss := shipper.Stats()
		fmt.Fprintf(errw, "mirrored %d frames (%d retries, %d spilled, %d dropped)\n",
			ss.FramesShipped, ss.Retries, ss.Queue.Spilled, ss.FramesDropped)
	}
	return nil
}

// printWorkerStats is the worker-mode twin of printStats: same
// sessions/s (engine=...) form, plus lease accounting.
func printWorkerStats(w io.Writer, s coord.WorkerStats) {
	if s.PlayerSessions == 0 {
		return
	}
	fmt.Fprintf(w, "worker: %d player sessions (%d paired, %d shards) in %v (%.0f sessions/s (engine=%s), %d leases, %d stolen, %d duplicate deliveries)\n",
		s.PlayerSessions, s.SessionsRun, s.ShardsRun, s.Elapsed.Round(time.Millisecond),
		s.SessionsPerSecond(), s.Engine, s.Leases, s.Stolen, s.Duplicates)
}

// runMerge combines stripe checkpoints into the final report.
func runMerge(out io.Writer, o options) error {
	var cps []*campaign.Checkpoint
	for _, path := range strings.Split(o.merge, ",") {
		cp, err := campaign.LoadCheckpoint(strings.TrimSpace(path))
		if err != nil {
			return err
		}
		cps = append(cps, cp)
	}
	merged, err := campaign.MergeCheckpoints(cps...)
	if err != nil {
		return err
	}
	rep, err := campaign.FinalReport(merged)
	if err != nil {
		return err
	}
	return writeReport(out, o.report, rep)
}

func writeReport(out io.Writer, path string, r *campaign.Report) error {
	if path == "" {
		return r.WriteJSON(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// progressPrinter returns a Progress callback that writes a throttled
// status line: shard and session counts, sessions/s, ETA and the live
// rebuffer-rate delta of each arm against the control.
func progressPrinter(w io.Writer, every time.Duration) func(campaign.Progress) {
	var last time.Duration
	return func(p campaign.Progress) {
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

func printStats(w io.Writer, s campaign.RunStats) {
	if s.PlayerSessions == 0 {
		return
	}
	fmt.Fprintf(w, "campaign: %d player sessions (%d paired) in %v (%.0f sessions/s (engine=%s), parallelism %d, peak pending %d shards)\n",
		s.PlayerSessions, s.SessionsRun, s.Elapsed.Round(time.Millisecond),
		s.SessionsPerSecond(), s.Engine, s.Parallelism, s.PeakPending)
	if s.Faults > 0 || s.Retries > 0 || s.Degradations > 0 || s.Failovers > 0 {
		fmt.Fprintf(w, "fault injection: %d faults, %d retries, %d degradations, %d failovers\n",
			s.Faults, s.Retries, s.Degradations, s.Failovers)
	}
}
