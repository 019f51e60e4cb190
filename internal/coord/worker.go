package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"time"

	"bba/internal/campaign"
)

// Client is the worker's view of a coordinator.
type Client struct {
	// URL is the coordinator's base URL (http://host:port).
	URL string
	// Worker is this worker's stable name.
	Worker string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
}

// A call makes at most callAttempts attempts, backing off linearly in
// steps of callRetryDelay.
const (
	callAttempts   = 5
	callRetryDelay = 100 * time.Millisecond
)

// call POSTs a JSON request and decodes the JSON response, retrying
// transport errors and 5xx; a 4xx is a permanent protocol error.
func (c *Client) call(ctx context.Context, path string, req, resp any) error {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	url := strings.TrimSuffix(c.URL, "/") + path
	var lastErr error
	for attempt := 0; attempt < callAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(time.Duration(attempt) * callRetryDelay):
			}
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", "application/json")
		hresp, err := httpc.Do(hreq)
		if err != nil {
			lastErr = err
			continue
		}
		rbody, rerr := io.ReadAll(io.LimitReader(hresp.Body, maxBody))
		hresp.Body.Close()
		switch {
		case hresp.StatusCode == http.StatusOK && rerr == nil:
			return json.Unmarshal(rbody, resp)
		case hresp.StatusCode >= 500 || rerr != nil:
			lastErr = fmt.Errorf("coord: %s: %s: %s", path, hresp.Status, strings.TrimSpace(string(rbody)))
		default:
			return fmt.Errorf("coord: %s: %s: %s", path, hresp.Status, strings.TrimSpace(string(rbody)))
		}
	}
	return fmt.Errorf("coord: %s unreachable after %d attempts: %w", path, callAttempts, lastErr)
}

// Join registers the worker.
func (c *Client) Join(ctx context.Context) (JoinResponse, error) {
	var resp JoinResponse
	err := c.call(ctx, "/join", JoinRequest{Worker: c.Worker}, &resp)
	return resp, err
}

// Acquire requests a lease.
func (c *Client) Acquire(ctx context.Context) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.call(ctx, "/lease", LeaseRequest{Worker: c.Worker}, &resp)
	return resp, err
}

// Heartbeat extends the given leases.
func (c *Client) Heartbeat(ctx context.Context, leases []uint64) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := c.call(ctx, "/heartbeat", HeartbeatRequest{Worker: c.Worker, Leases: leases}, &resp)
	return resp, err
}

// Complete delivers one finished shard under a lease.
func (c *Client) Complete(ctx context.Context, lease uint64, shard int, accums []*campaign.GroupAccum) (CompleteResponse, error) {
	var resp CompleteResponse
	err := c.call(ctx, "/complete", CompleteRequest{Worker: c.Worker, Lease: lease, Shard: shard, Groups: accums}, &resp)
	return resp, err
}

// Report fetches the finished campaign report bytes.
func (c *Client) Report(ctx context.Context) ([]byte, error) {
	httpc := c.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(c.URL, "/")+"/report", nil)
	if err != nil {
		return nil, err
	}
	resp, err := httpc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("coord: /report: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// WorkerConfig configures one worker process.
type WorkerConfig struct {
	// URL is the coordinator's base URL. Required.
	URL string
	// Name is the worker's stable name (default "host-pid").
	Name string
	// Parallelism bounds shard-executing goroutines (default GOMAXPROCS).
	Parallelism int
	// Batch routes execution through the batch kernel; BatchWidth tunes it.
	// Per-worker choices — the report is byte-identical either way.
	Batch      bool
	BatchWidth int
	// Poll is the wait between empty lease responses (default TTL/4).
	Poll time.Duration
	// HTTP overrides the transport (tests inject httptest clients).
	HTTP *http.Client
	// BeforeShard is a test seam called with each shard index before it
	// executes; returning an error abandons the worker mid-lease (the
	// "worker killed" failure injection).
	BeforeShard func(shard int) error
	// Progress, when non-nil, receives a line-worthy note on joins, leases
	// and completions.
	Progress func(format string, args ...any)
}

// WorkerStats summarizes one RunWorker invocation: the execution numbers
// every campaign run reports (Elapsed is join to exit, Parallelism the
// executor goroutines; PeakPending and the fault counters stay zero — the
// fold is the coordinator's) plus the worker's lease accounting.
type WorkerStats struct {
	campaign.RunStats
	// Identity is the campaign the coordinator assigned.
	Identity campaign.Identity
	// Leases counts grants executed (Stolen of them work-stealing).
	Leases, Stolen int
	// Duplicates counts deliveries the coordinator had already folded from
	// elsewhere.
	Duplicates int
}

// RunWorker joins the coordinator and executes leases until the campaign
// completes, the context is cancelled, or the coordinator becomes
// unreachable. It returns stats even on error.
func RunWorker(ctx context.Context, cfg WorkerConfig) (stats WorkerStats, err error) {
	// Named returns: the deferred Elapsed stamp below must reach the copy
	// the caller receives on every exit path.
	if cfg.URL == "" {
		return stats, fmt.Errorf("coord: worker needs a coordinator URL")
	}
	if cfg.Name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	stats.Parallelism = cfg.Parallelism
	stats.Engine = "scalar"
	if cfg.Batch {
		stats.Engine = "batch"
	}
	client := &Client{URL: cfg.URL, Worker: cfg.Name, HTTP: cfg.HTTP}
	progress := cfg.Progress
	if progress == nil {
		progress = func(string, ...any) {}
	}

	start := time.Now()
	defer func() { stats.Elapsed = time.Since(start) }()

	join, err := client.Join(ctx)
	if err != nil {
		return stats, err
	}
	stats.Identity = join.Identity
	ccfg, err := join.Identity.Config()
	if err != nil {
		return stats, fmt.Errorf("coord: coordinator identity: %w", err)
	}
	ccfg.Batch = cfg.Batch
	ccfg.BatchWidth = cfg.BatchWidth
	if !reflect.DeepEqual(ccfg.Identity(), join.Identity) {
		return stats, fmt.Errorf("coord: local identity diverges from coordinator's — version skew between worker and coordinator")
	}
	poll := cfg.Poll
	if poll <= 0 {
		poll = join.TTL() / 4
		if poll <= 0 || poll > time.Second {
			// Cap the idle poll so workers notice completion within the
			// coordinator's post-completion drain window.
			poll = time.Second
		}
	}
	progress("joined %s as %q: %d sessions in %d shards (engine=%s)",
		cfg.URL, cfg.Name, join.Identity.Sessions, join.Identity.Shards(), stats.Engine)

	// Heartbeat loop: extend every lease the executor currently holds at a
	// third of the TTL, so a healthy worker never expires mid-shard.
	var leaseMu sync.Mutex
	held := map[uint64]struct{}{}
	hbctx, stopHB := context.WithCancel(ctx)
	var hbWG sync.WaitGroup
	defer func() { stopHB(); hbWG.Wait() }()
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(maxDuration(join.TTL()/3, 10*time.Millisecond))
		defer tick.Stop()
		for {
			select {
			case <-hbctx.Done():
				return
			case <-tick.C:
			}
			leaseMu.Lock()
			ids := make([]uint64, 0, len(held))
			for id := range held {
				ids = append(ids, id)
			}
			leaseMu.Unlock()
			if len(ids) == 0 {
				continue
			}
			// Best effort: a missed heartbeat only risks an expiry, which
			// the exactly-once fold absorbs.
			_, _ = client.Heartbeat(hbctx, ids)
		}
	}()

	// One ShardRunner per executor goroutine: the batch engine's lane
	// arenas and draw scratch are per-runner state; the reservoir plans
	// live on the catalog's titles and are shared by all of them.
	runners := make(chan *campaign.ShardRunner, cfg.Parallelism)
	for i := 0; i < cfg.Parallelism; i++ {
		r, err := campaign.NewShardRunner(ccfg)
		if err != nil {
			return stats, err
		}
		runners <- r
	}

	for {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		grant, err := client.Acquire(ctx)
		if err != nil {
			return stats, err
		}
		if grant.Complete {
			progress("campaign complete: ran %d shards (%d duplicate deliveries) across %d leases",
				stats.ShardsRun, stats.Duplicates, stats.Leases)
			return stats, nil
		}
		if len(grant.Shards) == 0 {
			select {
			case <-ctx.Done():
				return stats, ctx.Err()
			case <-time.After(poll):
			}
			continue
		}
		stats.Leases++
		if grant.Stolen {
			stats.Stolen++
			progress("lease %d (stolen): shards %v", grant.Lease, grant.Shards)
		} else {
			progress("lease %d: shards %v", grant.Lease, grant.Shards)
		}
		leaseMu.Lock()
		held[grant.Lease] = struct{}{}
		leaseMu.Unlock()

		complete, err := runLease(ctx, cfg, client, runners, grant, &stats)

		leaseMu.Lock()
		delete(held, grant.Lease)
		leaseMu.Unlock()
		if err != nil {
			return stats, err
		}
		if complete {
			// A completion ack said the campaign is done — exit without
			// another poll; the coordinator may already be shutting down.
			progress("campaign complete: ran %d shards (%d duplicate deliveries) across %d leases",
				stats.ShardsRun, stats.Duplicates, stats.Leases)
			return stats, nil
		}
	}
}

// runLease executes one grant's shards with bounded parallelism, shipping
// each shard to the coordinator as soon as it finishes so a kill loses at
// most the shards in flight.
func runLease(ctx context.Context, cfg WorkerConfig, client *Client, runners chan *campaign.ShardRunner, grant LeaseResponse, stats *WorkerStats) (complete bool, _ error) {
	type result struct {
		shard    int
		sessions int64
		dup      bool
		done     bool
		err      error
	}
	shards := make(chan int, len(grant.Shards))
	for _, s := range grant.Shards {
		shards <- s
	}
	close(shards)
	width := cfg.Parallelism
	if width > len(grant.Shards) {
		width = len(grant.Shards)
	}
	results := make(chan result, len(grant.Shards))
	var wg sync.WaitGroup
	for i := 0; i < width; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := <-runners
			defer func() { runners <- r }()
			for s := range shards {
				res := result{shard: s, sessions: int64(r.ShardSessions(s))}
				if cfg.BeforeShard != nil {
					if err := cfg.BeforeShard(s); err != nil {
						res.err = err
						results <- res
						return
					}
				}
				accums, err := r.RunShard(ctx, s)
				if err != nil {
					res.err = err
					results <- res
					return
				}
				ack, err := client.Complete(ctx, grant.Lease, s, accums)
				if err != nil {
					res.err = err
				}
				res.dup = ack.Duplicate
				res.done = ack.Complete
				results <- res
			}
		}()
	}
	wg.Wait()
	close(results)
	var firstErr error
	for res := range results {
		if res.err != nil {
			if firstErr == nil {
				firstErr = res.err
			}
			continue
		}
		stats.ShardsRun++
		stats.SessionsRun += res.sessions
		stats.PlayerSessions += res.sessions * int64(len(stats.Identity.Groups))
		if res.dup {
			stats.Duplicates++
		}
		if res.done {
			complete = true
		}
	}
	return complete, firstErr
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
