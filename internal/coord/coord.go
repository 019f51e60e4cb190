// Package coord is the distributed campaign control plane: a coordinator
// that partitions a campaign's deterministic shard space into leases and
// hands them to worker processes over HTTP.
//
// The design splits the fleet the way grafana/tempo splits distributor
// from ingester: the coordinator owns scheduling state (lease table,
// worker registry, the exactly-once checkpoint fold) and no session
// execution; workers own execution (through the scalar or batch engine)
// and no scheduling. The contract that makes the split safe is the same
// one the campaign layer already pins locally:
//
//	a shard's accumulators depend only on (identity, shard) — never on
//	which worker computed them, when, or how many times — and the
//	campaign state is the left-to-right fold of shard accumulators in
//	shard-index order, guarded by campaign.Checkpoint's duplicate check.
//
// Leases exist purely for liveness, not correctness: an expired lease's
// shards return to the pending pool and are re-issued, and when the pool
// drains a fast worker may steal a straggler's remaining shards outright.
// Both paths can produce duplicate completions of one shard; Checkpoint.Has
// makes the second fold a no-op, so the report is byte-identical to a
// single-process run of the same seed regardless of fleet size, worker
// churn, or duplicate deliveries. The coordinator reports through Stats
// (served on /metrics), not through telemetry events.
package coord

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"sync"
	"time"

	"bba/internal/campaign"
)

// Defaults for the lease policy.
const (
	DefaultLeaseShards = 4
	DefaultLeaseTTL    = 15 * time.Second
)

// Config configures a Coordinator.
type Config struct {
	// Spec describes the campaign to run. Required.
	Spec Spec
	// LeaseShards is the maximum shards granted per lease (default
	// DefaultLeaseShards). Scheduling only — never part of the identity.
	LeaseShards int
	// LeaseTTL is how long a lease lives without a heartbeat (default
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Resume, when non-nil, seeds the fold from a previously saved
	// checkpoint — the coordinator's own crash-resume path. Its identity
	// must match the spec's.
	Resume *campaign.Checkpoint
	// CheckpointPath, when non-empty, receives an atomically written
	// checkpoint every CheckpointEvery folded shards and at completion.
	CheckpointPath string
	// CheckpointEvery is the folded-shard interval between checkpoint
	// writes (default 8).
	CheckpointEvery int
	// Now is the clock (default time.Now); tests inject a fake to drive
	// expiry deterministically.
	Now func() time.Time
}

// Stats is a snapshot of coordinator activity.
type Stats struct {
	WorkersJoined  int64
	LeasesGranted  int64
	LeasesStolen   int64 // work-stealing grants (subset of LeasesGranted)
	LeasesExpired  int64
	ShardsReissued int64 // shards returned to pending by expiry
	Shards         int64 // shard completions folded (exactly once each)
	ShardsDup      int64 // duplicate completions absorbed as no-ops
	ShardsPending  int   // not leased, not folded
	ShardsLeased   int   // under at least one active lease, not folded
	ShardsDone     int   // folded
	ActiveLeases   int
	// OldestLeaseAge is how long the oldest live lease has been held since
	// its grant — the straggler. Heartbeats do not reset it; 0 when no
	// lease is live.
	OldestLeaseAge time.Duration
	Complete       bool
}

// lease is one outstanding grant.
type lease struct {
	id        uint64
	worker    string
	granted   time.Time
	expiry    time.Time        // granted + TTL, pushed out by each heartbeat
	remaining map[int]struct{} // granted shards not yet completed anywhere
	stolen    bool
}

// Coordinator owns the lease table and the exactly-once fold. All state
// lives behind one mutex; every entry point sweeps expired leases first,
// so expiry needs no background goroutine and is deterministic under an
// injected clock.
type Coordinator struct {
	cfg Config
	id  campaign.Identity

	mu        sync.Mutex
	cp        *campaign.Checkpoint
	pending   []int // ascending shard indices: not leased, not folded
	leases    map[uint64]*lease
	active    map[int]int // shard -> count of live leases covering it
	workers   map[string]time.Time
	nextLease uint64
	sinceSave int
	stats     Stats
	saveErr   error

	done chan struct{}
}

// New builds a coordinator for cfg.Spec, optionally resuming the fold from
// cfg.Resume.
func New(cfg Config) (*Coordinator, error) {
	if cfg.LeaseShards <= 0 {
		cfg.LeaseShards = DefaultLeaseShards
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = DefaultLeaseTTL
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 8
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	ccfg, err := cfg.Spec.Config()
	if err != nil {
		return nil, err
	}
	id := ccfg.Identity()
	cp := campaign.NewCheckpoint(id)
	if cfg.Resume != nil {
		if !reflect.DeepEqual(cfg.Resume.Identity, id) {
			return nil, fmt.Errorf("coord: checkpoint identity does not match spec; refusing to resume")
		}
		cp = cfg.Resume
	}
	c := &Coordinator{
		cfg:     cfg,
		id:      id,
		cp:      cp,
		leases:  make(map[uint64]*lease),
		active:  make(map[int]int),
		workers: make(map[string]time.Time),
		done:    make(chan struct{}),
	}
	for s := 0; s < id.Shards(); s++ {
		if !cp.Has(s) {
			c.pending = append(c.pending, s)
		}
	}
	if cp.Complete() {
		close(c.done)
	}
	return c, nil
}

// Identity returns the campaign identity the coordinator folds under.
func (c *Coordinator) Identity() campaign.Identity { return c.id }

// Done is closed when every shard has folded.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// sweepLocked expires lapsed leases, returning their un-folded shards to
// the pending pool. Callers hold c.mu.
func (c *Coordinator) sweepLocked() {
	now := c.cfg.Now()
	for id, l := range c.leases {
		if l.expiry.After(now) {
			continue
		}
		delete(c.leases, id)
		c.stats.LeasesExpired++
		for s := range l.remaining {
			if c.active[s]--; c.active[s] > 0 {
				continue // another (stolen) lease still covers it
			}
			delete(c.active, s)
			if c.cp.Has(s) {
				continue
			}
			c.insertPending(s)
			c.stats.ShardsReissued++
		}
	}
}

// insertPending puts shard s back into the ascending pending pool.
func (c *Coordinator) insertPending(s int) {
	i := sort.SearchInts(c.pending, s)
	if i < len(c.pending) && c.pending[i] == s {
		return
	}
	c.pending = append(c.pending, 0)
	copy(c.pending[i+1:], c.pending[i:])
	c.pending[i] = s
}

// Join registers a worker and returns the campaign identity and lease policy.
func (c *Coordinator) Join(req JoinRequest) (JoinResponse, error) {
	if req.Worker == "" {
		return JoinResponse{}, fmt.Errorf("coord: join without a worker name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, known := c.workers[req.Worker]; !known {
		c.stats.WorkersJoined++
	}
	c.workers[req.Worker] = c.cfg.Now()
	return JoinResponse{
		Identity:       c.id,
		LeaseTTLMillis: c.cfg.LeaseTTL.Milliseconds(),
		LeaseShards:    c.cfg.LeaseShards,
	}, nil
}

// Acquire grants a lease: up to LeaseShards pending shards, or — when the
// pool is dry but leases are outstanding — a work-stealing re-lease over a
// straggler's remaining shards. An empty, non-complete response means
// "nothing to hand out right now, poll again".
func (c *Coordinator) Acquire(req LeaseRequest) (LeaseResponse, error) {
	if req.Worker == "" {
		return LeaseResponse{}, fmt.Errorf("coord: lease request without a worker name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	c.workers[req.Worker] = c.cfg.Now()
	if c.cp.Complete() {
		return LeaseResponse{Complete: true}, nil
	}

	var shards []int
	stolen := false
	if len(c.pending) > 0 {
		n := c.cfg.LeaseShards
		if n > len(c.pending) {
			n = len(c.pending)
		}
		shards = append(shards, c.pending[:n]...)
		c.pending = c.pending[n:]
	} else {
		// Work-stealing: double-lease the largest straggler tail held by
		// another worker, restricted to shards with exactly one live lease
		// so two thieves never pile onto the same shard.
		var victim *lease
		for _, l := range c.leases {
			if l.worker == req.Worker {
				continue
			}
			if stealable(c, l) == 0 {
				continue
			}
			if victim == nil || stealable(c, l) > stealable(c, victim) ||
				(stealable(c, l) == stealable(c, victim) && l.id < victim.id) {
				victim = l
			}
		}
		if victim != nil {
			for s := range victim.remaining {
				if c.active[s] == 1 && !c.cp.Has(s) {
					shards = append(shards, s)
				}
			}
			sort.Ints(shards)
			if len(shards) > c.cfg.LeaseShards {
				shards = shards[:c.cfg.LeaseShards]
			}
			stolen = true
		}
	}
	if len(shards) == 0 {
		return LeaseResponse{}, nil
	}

	c.nextLease++
	now := c.cfg.Now()
	l := &lease{
		id:        c.nextLease,
		worker:    req.Worker,
		granted:   now,
		expiry:    now.Add(c.cfg.LeaseTTL),
		remaining: make(map[int]struct{}, len(shards)),
		stolen:    stolen,
	}
	for _, s := range shards {
		l.remaining[s] = struct{}{}
		c.active[s]++
	}
	c.leases[l.id] = l
	c.stats.LeasesGranted++
	if stolen {
		c.stats.LeasesStolen++
	}
	return LeaseResponse{
		Lease:         l.id,
		Shards:        shards,
		Stolen:        stolen,
		ExpiresMillis: c.cfg.LeaseTTL.Milliseconds(),
	}, nil
}

// stealable counts a lease's shards that a thief could take.
func stealable(c *Coordinator, l *lease) int {
	n := 0
	for s := range l.remaining {
		if c.active[s] == 1 && !c.cp.Has(s) {
			n++
		}
	}
	return n
}

// Heartbeat extends the worker's leases and reports which survived.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	if req.Worker == "" {
		return HeartbeatResponse{}, fmt.Errorf("coord: heartbeat without a worker name")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	c.workers[req.Worker] = c.cfg.Now()
	var resp HeartbeatResponse
	for _, id := range req.Leases {
		if l, ok := c.leases[id]; ok && l.worker == req.Worker {
			l.expiry = c.cfg.Now().Add(c.cfg.LeaseTTL)
			resp.Extended = append(resp.Extended, id)
		}
	}
	resp.Complete = c.cp.Complete()
	return resp, nil
}

// Complete folds one finished shard exactly once. Duplicate deliveries —
// a stolen shard's loser, a retry after a lost ack, or a straggler whose
// lease already expired — are acknowledged as no-ops via Checkpoint.Has.
// Late completions from expired leases still count when they arrive first:
// leases are liveness, the checkpoint is correctness.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	if req.Worker == "" {
		return CompleteResponse{}, fmt.Errorf("coord: completion without a worker name")
	}
	if req.Shard < 0 || req.Shard >= c.id.Shards() {
		return CompleteResponse{}, fmt.Errorf("coord: shard %d outside [0,%d)", req.Shard, c.id.Shards())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	c.workers[req.Worker] = c.cfg.Now()
	// Record refuses a body it cannot fold before it changes anything, so
	// the shard stays leased or pending and a good retry folds it.
	dup := c.cp.Has(req.Shard)
	if !dup {
		if err := c.cp.Record(req.Shard, req.Groups); err != nil {
			return CompleteResponse{}, err
		}
	}

	// Retire the shard from every lease covering it, whichever lease the
	// completion arrived under.
	for id, l := range c.leases {
		if _, held := l.remaining[req.Shard]; !held {
			continue
		}
		delete(l.remaining, req.Shard)
		if len(l.remaining) == 0 {
			delete(c.leases, id)
		}
	}
	if c.active[req.Shard] > 0 {
		delete(c.active, req.Shard)
	}
	// The shard may still sit in pending (completion from a lease that
	// expired moments ago); drop it so it is never re-granted.
	if i := sort.SearchInts(c.pending, req.Shard); i < len(c.pending) && c.pending[i] == req.Shard {
		c.pending = append(c.pending[:i], c.pending[i+1:]...)
	}

	if dup {
		c.stats.ShardsDup++
		return CompleteResponse{Duplicate: true, Complete: c.cp.Complete()}, nil
	}
	c.stats.Shards++
	c.sinceSave++
	if c.cfg.CheckpointPath != "" && (c.sinceSave >= c.cfg.CheckpointEvery || c.cp.Complete()) {
		if err := c.cp.Save(c.cfg.CheckpointPath); err != nil && c.saveErr == nil {
			c.saveErr = err
		}
		c.sinceSave = 0
	}
	if c.cp.Complete() {
		close(c.done)
	}
	return CompleteResponse{Complete: c.cp.Complete()}, nil
}

// Sweep expires lapsed leases; the daemon ticks it so abandoned shards are
// re-issued even while no worker is talking to the coordinator.
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
}

// Checkpoint saves the fold state to path (or CheckpointPath when path is
// empty) — the daemon's shutdown hook.
func (c *Coordinator) Checkpoint(path string) error {
	if path == "" {
		path = c.cfg.CheckpointPath
	}
	if path == "" {
		return fmt.Errorf("coord: no checkpoint path")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cp.Save(path)
}

// Report renders the campaign's canonical report — the byte-identical
// aggregate a local run of the same spec produces — or an error while
// shards are outstanding or a checkpoint save failed.
func (c *Coordinator) Report() ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.saveErr != nil {
		return nil, fmt.Errorf("coord: checkpoint save failed mid-run: %w", c.saveErr)
	}
	rep, err := campaign.FinalReport(c.cp)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Stats returns a snapshot of the scheduling state.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.ShardsPending = len(c.pending)
	s.ShardsLeased = len(c.active)
	s.ShardsDone = c.cp.CompletedShards()
	s.ActiveLeases = len(c.leases)
	now := c.cfg.Now()
	for _, l := range c.leases {
		if age := now.Sub(l.granted); age > s.OldestLeaseAge {
			s.OldestLeaseAge = age
		}
	}
	s.Complete = c.cp.Complete()
	return s
}
