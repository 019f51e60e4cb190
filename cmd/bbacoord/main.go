// Command bbacoord is the campaign coordinator: the control-plane daemon
// that turns a fleet of bbacampaign worker processes into one
// deterministic campaign. It partitions the campaign's shard space into
// leases, hands them to workers over HTTP, re-issues shards whose leases
// expire (worker death), lets fast workers steal straggler tails, and
// folds completed shard accumulators exactly once through the campaign
// checkpoint — so the final report is byte-identical to a single-process
// run of the same seed, regardless of fleet size or churn.
//
// Endpoints:
//
//	POST /join /lease /heartbeat /complete   worker protocol (JSON)
//	GET  /report                             the final report once complete
//	GET  /metrics                            Prometheus-text counters
//	GET  /healthz                            liveness
//
// Example — one coordinator, three workers, any mix of machines:
//
//	bbacoord -sessions 1000000 -faults -checkpoint coord.json -report report.json &
//	bbacampaign worker -coord http://host:8407 -batch   # × N
//
// The coordinator exits 0 once every shard is folded and the report is
// written. SIGINT/SIGTERM saves the checkpoint (with -checkpoint) and
// exits non-zero; restarting with the same flags resumes the fold without
// re-running completed shards.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"bba/internal/campaign"
	"bba/internal/coord"
	"bba/internal/obs"
)

type options struct {
	addr string
	// coord is bound directly: the campaign (Spec) from the same identity
	// flags as bbacampaign's, the lease policy and checkpointing from the
	// daemon's own.
	coord         coord.Config
	sweepEvery    time.Duration
	report        string
	drain         time.Duration
	progressEvery time.Duration
	// ready is a test seam: receives the bound HTTP address once serving.
	ready chan<- string
}

func main() {
	var o options
	o.coord.Spec = campaign.FlagDefaults()
	o.coord.Spec.Bind(flag.CommandLine)
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8407", "HTTP listen address (worker protocol, report, metrics)")
	flag.IntVar(&o.coord.LeaseShards, "lease-shards", coord.DefaultLeaseShards, "maximum shards per lease")
	flag.DurationVar(&o.coord.LeaseTTL, "lease-ttl", coord.DefaultLeaseTTL, "lease expiry without a heartbeat")
	flag.DurationVar(&o.sweepEvery, "sweep-every", time.Second, "background lease-expiry sweep interval")
	flag.StringVar(&o.coord.CheckpointPath, "checkpoint", "", "checkpoint file path (written periodically and on exit; resumed from when present)")
	flag.IntVar(&o.coord.CheckpointEvery, "checkpoint-every", 8, "folded shards between checkpoint writes")
	flag.StringVar(&o.report, "report", "", "final report path (default stdout)")
	flag.DurationVar(&o.drain, "drain", 2*time.Second, "serve this long after completion so idle workers observe the campaign is done")
	flag.DurationVar(&o.progressEvery, "progress-every", 2*time.Second, "progress line interval on stderr (0 disables)")
	flag.Parse()

	obs.Main("bbacoord", func(ctx context.Context) error {
		return run(ctx, os.Stdout, os.Stderr, o)
	})
}

func run(ctx context.Context, out, errw io.Writer, o options) error {
	ccfg := o.coord
	if ccfg.CheckpointPath != "" {
		if cp, err := campaign.LoadCheckpoint(ccfg.CheckpointPath); err == nil {
			ccfg.Resume = cp
			fmt.Fprintf(errw, "resuming from %s: %d shards (%d sessions) already folded\n",
				ccfg.CheckpointPath, cp.CompletedShards(), cp.SessionsDone())
		} else if !errors.Is(err, os.ErrNotExist) {
			return err
		}
	}
	c, err := coord.New(ccfg)
	if err != nil {
		return err
	}

	srv, err := obs.Serve(o.addr, c.Handler(), 5*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "coordinating on %s (/join, /lease, /heartbeat, /complete, /report, /metrics, /healthz)\n", srv.URL())
	fmt.Fprintf(errw, "campaign: %d sessions in %d shards, lease %d shards / %v ttl\n",
		c.Identity().Sessions, c.Identity().Shards(), ccfg.LeaseShards, ccfg.LeaseTTL)
	if o.ready != nil {
		o.ready <- srv.Addr()
	}

	// Background sweep keeps expiry moving while no worker is talking;
	// progress goes to stderr like bbacampaign's. A nil progress channel
	// (-progress-every 0) never fires.
	ticker := time.NewTicker(o.sweepEvery)
	defer ticker.Stop()
	var progress <-chan time.Time
	if o.progressEvery > 0 {
		t := time.NewTicker(o.progressEvery)
		defer t.Stop()
		progress = t.C
	}

	start := time.Now()
	var runErr error
loop:
	for {
		select {
		case <-c.Done():
			break loop
		case <-ctx.Done():
			runErr = ctx.Err()
			break loop
		case <-srv.Done():
			return srv.Err()
		case <-ticker.C:
			c.Sweep()
		case <-progress:
			s := c.Stats()
			fmt.Fprintf(errw, "shards %d/%d done  %d pending  %d leased (%d leases, %d workers)  %d expired  %d stolen\n",
				s.ShardsDone, c.Identity().Shards(), s.ShardsPending, s.ShardsLeased,
				s.ActiveLeases, s.WorkersJoined, s.LeasesExpired, s.LeasesStolen)
		}
	}

	if runErr == nil && o.drain > 0 {
		// Workers cap their idle poll at one second; draining past that lets
		// every poller see a Complete lease response instead of a refused
		// connection.
		select {
		case <-time.After(o.drain):
		case <-ctx.Done():
		}
	}
	shutdownErr := srv.Close(context.Background())

	s := c.Stats()
	fmt.Fprintf(errw, "coordinator: %d shards folded (%d duplicates absorbed) across %d workers, %d leases (%d stolen, %d expired, %d shards re-issued) in %v\n",
		s.Shards, s.ShardsDup, s.WorkersJoined, s.LeasesGranted, s.LeasesStolen, s.LeasesExpired, s.ShardsReissued,
		time.Since(start).Round(time.Millisecond))

	if runErr != nil {
		if ccfg.CheckpointPath != "" {
			if err := c.Checkpoint(ccfg.CheckpointPath); err != nil {
				return err
			}
			fmt.Fprintf(errw, "interrupted: checkpoint saved to %s (%d shards); rerun the same command to resume\n", ccfg.CheckpointPath, s.ShardsDone)
		}
		return fmt.Errorf("interrupted with %d/%d shards folded: %w", s.ShardsDone, c.Identity().Shards(), runErr)
	}
	if shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded) {
		return shutdownErr
	}

	body, err := c.Report()
	if err != nil {
		return err
	}
	if o.report == "" {
		_, err = out.Write(body)
		return err
	}
	return os.WriteFile(o.report, body, 0o644)
}
