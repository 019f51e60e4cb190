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
	"strings"
	"time"

	"bba/internal/campaign"
	"bba/internal/collect"
)

// shipFlags is the collector block run and worker share.
type shipFlags struct {
	addr, runID string
}

func (f *shipFlags) bind(fs *flag.FlagSet) {
	fs.StringVar(&f.addr, "ship", "", "ship telemetry and shard results to this collector URL (e.g. http://host:8406); run verifies the remotely aggregated report byte-for-byte against the local fold")
	fs.StringVar(&f.runID, "run-id", "", "run identifier at the collector (run: default campaign-<seed>; worker: required with -ship)")
}

// shipping is one process's lane to a collector, from run_start to run_end.
type shipping struct {
	shipFlags
	s     *collect.Shipper
	spill string
	errw  io.Writer
}

// open dials the collector lane; the caller defers close.
func (f shipFlags) open(errw io.Writer, retrySeed int64) (*shipping, error) {
	spill, err := os.MkdirTemp("", "bbaship-")
	if err != nil {
		return nil, err
	}
	s, err := collect.NewShipper(collect.ShipperConfig{
		Addr:    f.addr,
		Run:     f.runID,
		Session: uint64(os.Getpid()),
		Queue:   collect.QueueConfig{SpillDir: spill},
		Retry:   collect.RetryPolicy{Seed: retrySeed},
	})
	if err != nil {
		os.RemoveAll(spill)
		return nil, err
	}
	return &shipping{shipFlags: f, s: s, spill: spill, errw: errw}, nil
}

// close releases the lane on any path; after finish it is a no-op beyond
// removing the spill directory.
func (sh *shipping) close() {
	sh.s.Close()
	os.RemoveAll(sh.spill)
}

// start announces the run under the campaign identity the collector will
// aggregate it by.
func (sh *shipping) start(id campaign.Identity) error {
	idJSON, err := json.Marshal(id)
	if err != nil {
		return err
	}
	if err := sh.s.ShipRunStart(idJSON); err != nil {
		return err
	}
	fmt.Fprintf(sh.errw, "shipping run %q to %s (session %d)\n", sh.runID, sh.addr, os.Getpid())
	return nil
}

// onShard ships one completed shard's accumulators.
func (sh *shipping) onShard(shard int, accums []*campaign.GroupAccum) error {
	p, err := json.Marshal(campaign.ShardAccums{Shard: shard, Groups: accums})
	if err != nil {
		return err
	}
	return sh.s.ShipShard(p)
}

// finish completes the run protocol: flush outstanding frames, announce
// run_end, flush again, close.
func (sh *shipping) finish(ctx context.Context) error {
	if err := sh.s.Flush(ctx); err != nil {
		return fmt.Errorf("flushing shipped frames: %w", err)
	}
	if err := sh.s.ShipRunEnd(); err != nil {
		return err
	}
	if err := sh.s.Flush(ctx); err != nil {
		return fmt.Errorf("flushing run_end: %w", err)
	}
	if err := sh.s.Close(); err != nil {
		return err
	}
	ss := sh.s.Stats()
	fmt.Fprintf(sh.errw, "shipped %d frames (%d events, %d retries, %d spilled, %d dropped)\n",
		ss.FramesShipped, ss.Events, ss.Retries, ss.Queue.Spilled, ss.FramesDropped)
	return nil
}

// reportWait bounds the wait for the collector's report. The run_end frame
// was acknowledged before the fetch starts, so anything beyond a brief wait
// means the collector lost state.
const reportWait = 30 * time.Second

// verifiedReport fetches the remotely aggregated report and verifies it
// byte-for-byte against the local fold; the remote bytes are the run's
// final report.
func (sh *shipping) verifiedReport(ctx context.Context, local *campaign.Report) ([]byte, error) {
	remote, err := fetchReport(ctx, sh.addr, sh.runID, reportWait)
	if err != nil {
		return nil, err
	}
	var localBytes bytes.Buffer
	if err := local.WriteJSON(&localBytes); err != nil {
		return nil, err
	}
	if !bytes.Equal(remote, localBytes.Bytes()) {
		return nil, fmt.Errorf("remote report for run %q differs from the local fold — collector state is suspect (mixed runs under one id?)", sh.runID)
	}
	fmt.Fprintln(sh.errw, "remote aggregation verified: report byte-identical to the local fold")
	return remote, nil
}

// fetchReport polls the collector for the finished report until wait has
// passed. The deadline rides the request context, so a collector that
// accepts the connection and never answers cannot hold the poll past it.
func fetchReport(ctx context.Context, base, runID string, wait time.Duration) ([]byte, error) {
	url := strings.TrimSuffix(base, "/") + "/report/" + runID
	ctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	last := errors.New("none")
	for ctx.Err() == nil {
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
			err = fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(body.String()))
		}
		if ctx.Err() == nil {
			last = err // not the transport error the expiring deadline itself causes
		}
		select {
		case <-ctx.Done():
		case <-time.After(100 * time.Millisecond):
		}
	}
	return nil, fmt.Errorf("collector report %s: %w (last answer: %v)", url, ctx.Err(), last)
}
