// Package campaign is the repo's one population runner, from the paper's
// figure-sized weekend experiment (RunWeekend) to million-session
// campaigns: constant memory, deterministic sharding, and kill-resume
// checkpointing.
//
// The unit of work is the shard — a fixed run of ShardSize consecutive
// global paired-session indices. Everything about a session is keyed by the
// campaign identity and its (shard, offset) — how is the Layout's business —
// and shard boundaries depend only on the identity, never on worker count
// or process count. The determinism rule is therefore:
//
//	per-shard accumulators are bit-identical however they are computed, and
//	the campaign state is always the left-to-right fold of those shard
//	accumulators in shard-index order.
//
// Quantile sketches are exactly mergeable (set union of hashed samples), so
// they are order-independent outright; Welford moment merges are
// deterministic but not exactly associative in floating point, which is why
// the fold order is pinned. Under this rule a 4-worker run, a coordinator
// fleet (internal/coord) of any size, and a single-threaded run produce
// byte-identical reports.
//
// Memory: each session folds immediately into its shard's per-group
// accumulators (a few KB each); a run folds shards into a running prefix as
// they complete, holding at most the merge window (2×Parallelism) of
// out-of-order shards. Checkpoints record completed shards only — a shard
// is the atomic unit, so resuming after a kill never double-counts a
// session.
package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/abtest"
	"bba/internal/batch"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/metrics"
	"bba/internal/stats"
)

// Config describes one campaign. The zero value plus a Sessions count is a
// runnable clean campaign over the standard groups.
type Config struct {
	// Seed makes the campaign deterministic.
	Seed int64
	// Sessions is the number of paired session draws; each is streamed once
	// per group, so the player-session count is Sessions × len(Groups).
	Sessions int
	// ShardSize is the number of paired sessions per shard (default 1024).
	// It is part of the campaign identity: changing it changes per-session
	// RNG keying and therefore the drawn population.
	ShardSize int
	// Days is the simulated calendar depth (default 3).
	Days int
	// Layout maps (shard, offset) to a calendar slot and a draw key; see
	// Layout. The zero value is Interleaved. Part of the campaign identity.
	Layout Layout
	// Groups are the experiment arms; empty means abtest.StandardGroups.
	Groups []abtest.Group
	// Population tunes the synthetic user population.
	Population abtest.PopulationConfig
	// CatalogSize is the number of titles (default 24).
	CatalogSize int
	// Ladder is the encoding ladder (default media.DefaultLadder).
	Ladder media.Ladder
	// Parallelism bounds worker goroutines (default GOMAXPROCS).
	Parallelism int
	// Batch chooses the width of the internal/batch kernel every shard runs
	// through. Each worker owns a batch.Runner — reusable lanes, no
	// per-chunk logging, one draw scratch — and advances BatchWidth paired
	// draws concurrently when Batch is set, or one draw at a time
	// ("scalar") when it is not. Draw keying, fold order and accumulator
	// arithmetic do not depend on the width, so reports are byte-identical
	// either way. Batch is not part of the campaign identity.
	Batch bool
	// BatchWidth is the kernel's paired-draws-in-flight per worker when
	// Batch is set (default batch.DefaultWidth). The report is
	// byte-identical at any width, so it is never part of the identity.
	BatchWidth int
	// Faults, when non-nil, draws a per-session fault schedule from this
	// config and runs every group of the paired session under the identical
	// schedule: capacity faults reshape the session's trace, request-path
	// faults drive the player's retry/degradation loop.
	Faults *faults.ScheduleConfig
	// FaultSeed seeds the fault schedules independently of Seed.
	FaultSeed int64
	// SketchSize is each metric sketch's retained-sample capacity
	// (default 512). Part of the campaign identity.
	SketchSize int
	// Resume, when non-nil, is a previously saved checkpoint: its recorded
	// shards are skipped (never re-run, never double-counted) and the run
	// continues from its state. Its identity must match the config's.
	Resume *Checkpoint
	// CheckpointPath, when non-empty, receives an atomically written
	// checkpoint every CheckpointEvery completed shards and at the end of
	// the run (including cancelled runs).
	CheckpointPath string
	// CheckpointEvery is the shard interval between checkpoint writes
	// (default 8).
	CheckpointEvery int
	// NewExtra, when non-nil, attaches an extension accumulator to the run:
	// every shard gets a fresh Extra, each of the shard's paired draws is
	// fed to it via AddSessionSet (after the per-group accumulators), and
	// the collector folds completed shards' extras in ascending shard-index
	// order into Outcome.Extra — the same fold discipline that makes the
	// report byte-identical at any worker count. The arena's pairwise
	// match accumulators hook here. Extras are not checkpointed, so
	// NewExtra requires a non-resumed run.
	NewExtra func() Extra
	// Progress, when non-nil, is called after every completed shard from
	// the collector goroutine. It must not block.
	Progress func(Progress)
}

func (c *Config) applyDefaults() {
	if c.Sessions <= 0 {
		c.Sessions = 1000
	}
	if c.ShardSize <= 0 {
		c.ShardSize = 1024
	}
	if c.Days <= 0 {
		c.Days = 3
	}
	if len(c.Groups) == 0 {
		c.Groups = abtest.StandardGroups()
	}
	if c.CatalogSize <= 0 {
		c.CatalogSize = 24
	}
	if c.Ladder == nil {
		c.Ladder = media.DefaultLadder()
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.SketchSize <= 0 {
		c.SketchSize = 512
	}
	if c.CheckpointEvery <= 0 {
		c.CheckpointEvery = 8
	}
}

// Identity returns the campaign identity the config pins, with defaults
// applied — what a checkpoint stores and a coordinator ships.
func (c *Config) Identity() Identity {
	d := *c
	d.applyDefaults()
	return d.identity()
}

// identity derives the campaign identity from a defaulted config.
func (c *Config) identity() Identity {
	names := make([]string, len(c.Groups))
	for i, g := range c.Groups {
		names[i] = g.Name
	}
	return Identity{
		Seed:        c.Seed,
		FaultSeed:   c.FaultSeed,
		Faults:      c.Faults != nil,
		Sessions:    c.Sessions,
		ShardSize:   c.ShardSize,
		Days:        c.Days,
		Layout:      c.Layout,
		CatalogSize: c.CatalogSize,
		SketchSize:  c.SketchSize,
		Groups:      names,
	}
}

// Layout is how a campaign places its paired sessions on the experiment
// calendar and keys their draws. Shard boundaries, the kernel and the fold
// are the same under both layouts; only shardDraw reads it.
type Layout string

const (
	// Interleaved, the zero value, deals global session index g to window
	// g mod 12 of day (g div 12) mod Days, so any Sessions and ShardSize fill
	// every window evenly; draws are keyed (Seed, shard, offset).
	Interleaved Layout = ""
	// Weekend is the paper's experiment calendar: shard s is window s mod 12
	// of day s div 12, ShardSize paired sessions per window per day, so
	// Sessions must equal Days × 12 × ShardSize; draws are keyed
	// abtest.SessionRNG(Seed, day, window, offset).
	Weekend Layout = "weekend"
)

// checkLayout rejects a layout this build does not know (a checkpoint or
// config from elsewhere) and a Weekend campaign whose shards are not exactly
// the calendar's windows.
func (id Identity) checkLayout() error {
	switch id.Layout {
	case Interleaved:
	case Weekend:
		if want := id.Days * metrics.WindowsPerDay * id.ShardSize; id.Sessions != want {
			return fmt.Errorf("campaign: weekend layout needs sessions = days × %d × shard size = %d, have %d", metrics.WindowsPerDay, want, id.Sessions)
		}
	default:
		return fmt.Errorf("campaign: unknown layout %q", id.Layout)
	}
	return nil
}

// Progress is a live snapshot handed to Config.Progress after each
// completed shard.
type Progress struct {
	// ShardsDone / ShardsTotal count the campaign's shards, including
	// shards resumed from a checkpoint.
	ShardsDone, ShardsTotal int
	// SessionsDone / SessionsTotal count paired sessions likewise.
	SessionsDone, SessionsTotal int64
	// Elapsed is wall-clock time since the run started.
	Elapsed time.Duration
	// SessionsPerSec is this run's player-session throughput (excludes
	// resumed shards).
	SessionsPerSec float64
	// ETA estimates the remaining wall-clock time from this run's pace;
	// zero until the first shard completes.
	ETA time.Duration
	// Groups are display-only live aggregates folded in completion order
	// (not the deterministic fold; see GroupDelta).
	Groups []GroupDelta
}

// GroupDelta is a live, display-only view of one arm: folded in shard
// completion order, so it is not deterministic across runs — the final
// report is. VsControl is the group's mean rebuffer rate relative to the
// first group's (1 = equal, 0 when the control has no samples yet).
type GroupDelta struct {
	Name         string
	Sessions     int64
	RebufferRate float64
	AvgRateKbps  float64
	VsControl    float64
}

// RunStats describes one Run invocation's execution.
type RunStats struct {
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// SessionsRun counts paired sessions executed by this run (resumed
	// shards excluded); PlayerSessions = SessionsRun × groups.
	SessionsRun    int64
	PlayerSessions int64
	// ShardsRun counts shards executed by this run.
	ShardsRun int
	// Parallelism is the worker count used.
	Parallelism int
	// Engine names the kernel width sessions ran at: "scalar" (one paired
	// draw at a time) or "batch". Display only — never part of the
	// campaign identity.
	Engine string
	// PeakPending is the maximum number of completed shard accumulator
	// sets held beyond the folded prefix at any point — the memory-ceiling
	// witness; it never exceeds the merge window (2×Parallelism).
	PeakPending int
	// Faults, Retries, Degradations and Failovers total fault-injection
	// activity across this run's sessions.
	Faults, Retries, Degradations, Failovers int64
}

// SessionsPerSecond returns this run's player-session throughput.
func (s RunStats) SessionsPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.PlayerSessions) / s.Elapsed.Seconds()
}

// WriteSummary writes the run's execution summary — the same
// sessions/s (engine=...) form for every mode; detail, when not empty,
// continues the parenthesis with the mode's own numbers (", 3 leases") —
// and its fault-injection counters when there was any fault activity.
func (s RunStats) WriteSummary(w io.Writer, label, detail string) {
	if s.PlayerSessions == 0 {
		return
	}
	fmt.Fprintf(w, "%s: %d player sessions (%d paired, %d shards) in %v (%.0f sessions/s (engine=%s), parallelism %d%s)\n",
		label, s.PlayerSessions, s.SessionsRun, s.ShardsRun, s.Elapsed.Round(time.Millisecond),
		s.SessionsPerSecond(), s.Engine, s.Parallelism, detail)
	if s.Faults > 0 || s.Retries > 0 || s.Degradations > 0 || s.Failovers > 0 {
		fmt.Fprintf(w, "fault injection: %d faults, %d retries, %d degradations, %d failovers\n",
			s.Faults, s.Retries, s.Degradations, s.Failovers)
	}
}

// Outcome is the result of a Run.
type Outcome struct {
	// Report is the final campaign report; nil when the run did not
	// complete the campaign (it was cancelled or failed).
	Report *Report
	// Checkpoint is the run's final state — always present, and resumable
	// even when the run was cancelled.
	Checkpoint *Checkpoint
	// Extra is the extension accumulator folded over every completed shard
	// in shard-index order; nil unless Config.NewExtra was set. On a
	// cancelled run it covers only the folded prefix.
	Extra Extra
	// Stats describes the run's execution.
	Stats RunStats
}

// shardSeed derives the Interleaved layout's per-session RNG seed from
// (seed, shard, offset). The extra constant decorrelates its draws from the
// Weekend layout's abtest.SessionRNG streams with the same seed.
func shardSeed(seed int64, shard, off int) int64 {
	return int64(stats.Mix(uint64(seed), uint64(shard), uint64(off), 0xCA3A16))
}

// shardFaultSeed derives the per-session fault seed from (faultSeed, shard,
// offset), decorrelated from the population stream.
func shardFaultSeed(faultSeed int64, shard, off int) int64 {
	return int64(stats.Mix(uint64(faultSeed), uint64(shard), uint64(off), 0xCA3A16FA5E1))
}

// sessionKey is the unique sketch-sample identity of (global session,
// group): global index in the high bits, group index in the low bits.
func sessionKey(global int64, gi int) uint64 {
	return uint64(global)<<8 | uint64(gi&0xFF)
}

// shardDraw draws the user for one (shard, offset) — the campaign's
// determinism key — through the worker's draw scratch, in the calendar slot
// and under the seeds the layout assigns. The draw is keyed, so the User
// holds its key, not a trace, and the draw allocates nothing: the draw
// slot's env packs the scratch's composition into rows of its own, and
// only a replay of a retained User pays to compose it again.
func shardDraw(cfg *Config, catalog *media.Catalog, sc *abtest.Scratch, shard, off int) (abtest.User, *media.Video, int64) {
	var window, day int
	var seed, fseed int64
	if cfg.Layout == Weekend {
		window, day = shard%metrics.WindowsPerDay, shard/metrics.WindowsPerDay
		seed = abtest.SessionSeed(cfg.Seed, day, window, off)
		if cfg.Faults != nil {
			fseed = abtest.SessionFaultSeed(cfg.FaultSeed, day, window, off)
		}
	} else {
		global := int64(shard)*int64(cfg.ShardSize) + int64(off)
		window = int(global % int64(metrics.WindowsPerDay))
		day = int(global / int64(metrics.WindowsPerDay) % int64(cfg.Days))
		seed = shardSeed(cfg.Seed, shard, off)
		if cfg.Faults != nil {
			fseed = shardFaultSeed(cfg.FaultSeed, shard, off)
		}
	}
	u := sc.DrawKeyed(cfg.Population, window, day, seed)
	return u, u.Pick(catalog), fseed
}

// shardFold folds one paired draw's metrics into the shard's accumulators,
// in group order.
func shardFold(cfg *Config, accums []*GroupAccum, extra Extra, shard, off int, ms []metrics.Session) error {
	global := int64(shard)*int64(cfg.ShardSize) + int64(off)
	for gi := range cfg.Groups {
		if err := accums[gi].AddSession(sessionKey(global, gi), ms[gi]); err != nil {
			return fmt.Errorf("campaign: shard %d session %d: %w", shard, off, err)
		}
	}
	if extra != nil {
		if err := extra.AddSessionSet(global, ms); err != nil {
			return fmt.Errorf("campaign: shard %d session %d extra: %w", shard, off, err)
		}
	}
	return nil
}

// newRunner builds a worker's kernel: BatchWidth draws in flight with
// cfg.Batch, one otherwise. onRetire, when non-nil, is called once per
// finished player session.
func newRunner(cfg *Config, onRetire func()) *batch.Runner {
	width := 1
	if cfg.Batch {
		width = cfg.BatchWidth
	}
	return batch.NewRunner(batch.Config{
		Groups:   cfg.Groups,
		Faults:   cfg.Faults,
		Width:    width,
		OnRetire: onRetire,
	})
}

// runShard executes one shard through a worker-owned batch Runner: the
// kernel calls draw in ascending offset order, keyed by (seed, shard,
// offset), streams the paired session once per group and folds completed
// draws back in ascending offset order into accums, an empty set fresh or
// reset. The result depends only on (identity, shard), never on the
// Runner's width or on where accums came from.
func runShard(ctx context.Context, cfg *Config, catalog *media.Catalog, shard int, r *batch.Runner, accums []*GroupAccum) (Extra, error) {
	var extra Extra
	if cfg.NewExtra != nil {
		extra = cfg.NewExtra()
	}
	n := cfg.identity().shardSessions(shard)
	err := r.RunShard(ctx, n,
		func(off int) (batch.Draw, error) {
			u, video, fseed := shardDraw(cfg, catalog, r.Scratch(), shard, off)
			return batch.Draw{User: u, Video: video, Fseed: fseed}, nil
		},
		func(off int, ms []metrics.Session) error {
			return shardFold(cfg, accums, extra, shard, off, ms)
		})
	if err != nil {
		if isContextErr(err) {
			return nil, err
		}
		return nil, fmt.Errorf("campaign: shard %d: %w", shard, err)
	}
	return extra, nil
}

// Run executes the campaign. See RunContext.
func Run(cfg Config) (*Outcome, error) { return RunContext(context.Background(), cfg) }

// RunContext runs the campaign with cancellation. On cancellation it stops
// issuing shards, discards partially executed shards, saves a final
// checkpoint (when CheckpointPath is set) and returns the context's error
// alongside a non-nil Outcome carrying the resumable checkpoint — the
// caller decides whether a partial outcome is useful.
func RunContext(ctx context.Context, cfg Config) (*Outcome, error) {
	return run(ctx, cfg, new(accumSets))
}

// run is RunContext drawing its shards' accumulator sets from sets.
func run(ctx context.Context, cfg Config, sets *accumSets) (*Outcome, error) {
	cfg.applyDefaults()
	if cfg.NewExtra != nil && cfg.Resume != nil {
		return nil, fmt.Errorf("campaign: NewExtra requires a non-resumed run (extras are not checkpointed)")
	}
	id := cfg.identity()
	if err := id.checkLayout(); err != nil {
		return nil, err
	}
	catalog, err := media.NewCatalog(cfg.CatalogSize, cfg.Ladder, cfg.Seed)
	if err != nil {
		return nil, err
	}

	state := NewCheckpoint(id)
	if cfg.Resume != nil {
		if err := cfg.Resume.validate(); err != nil {
			return nil, err
		}
		if !reflect.DeepEqual(cfg.Resume.Identity, id) {
			return nil, fmt.Errorf("campaign: checkpoint identity does not match config; refusing to resume")
		}
		state = cfg.Resume
	}

	// This run's shards: every shard the checkpoint has not recorded,
	// ascending.
	var todo []int
	for s := 0; s < id.Shards(); s++ {
		if !state.Has(s) {
			todo = append(todo, s)
		}
	}

	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	start := time.Now()
	out := &Outcome{Checkpoint: state}
	out.Stats.Parallelism = cfg.Parallelism
	out.Stats.Engine = engineName(cfg.Batch)

	type shardResult struct {
		shard  int
		accums []*GroupAccum
		extra  Extra
		err    error
	}
	// The merge window: the producer takes a token per shard, and the
	// collector releases a shard's token only once that shard has folded
	// into the prefix (which always ends at the first shard still to
	// execute, so everything the run executes eventually folds). That makes
	// the memory ceiling a hard guarantee: dispatched-but-unfolded shards —
	// executing or parked — never exceed the window, however the scheduler
	// interleaves workers.
	window := 2 * cfg.Parallelism
	sets.carve(id, min(window, len(todo)))
	tokens := make(chan struct{}, window)
	shards := make(chan int)
	results := make(chan shardResult, window)

	go func() { // producer
		defer close(shards)
		for _, s := range todo {
			select {
			case tokens <- struct{}{}:
			case <-ctx.Done():
				return
			}
			select {
			case shards <- s:
			case <-ctx.Done():
				return
			}
		}
	}()

	// retired counts player sessions the kernel has actually finished (one
	// per retired lane), so progress throughput and ETA reflect real
	// session completions even while shards are in flight.
	var retired atomic.Int64

	var wg sync.WaitGroup
	for n := 0; n < cfg.Parallelism; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Each worker owns one Runner for its whole share of the
			// campaign: lanes and the draw scratch are reused across every
			// shard the worker executes.
			runner := newRunner(&cfg, func() { retired.Add(1) })
			for s := range shards {
				accums := sets.get(id)
				extra, err := runShard(ctx, &cfg, catalog, s, runner, accums)
				select {
				case results <- shardResult{shard: s, accums: accums, extra: extra, err: err}:
				case <-ctx.Done():
					return
				}
				if err != nil {
					cancel() // fail fast: the remaining shards cannot rescue the run
					return
				}
			}
		}()
	}
	go func() { wg.Wait(); close(results) }()

	// Collector: record shards as they complete, fold the in-order prefix,
	// checkpoint periodically, report progress.
	live := make([]liveGroup, len(id.Groups)) // display-only, completion order
	resumedShards, resumedSessions := state.CompletedShards(), state.SessionsDone()
	// Extension fold: parked extras wait until every lower shard has folded,
	// mirroring the checkpoint's prefix discipline so Outcome.Extra is as
	// order-independent as the report. todo is ascending.
	var extraFold Extra
	extraParked := map[int]Extra{}
	extraNext := 0
	if cfg.NewExtra != nil {
		extraFold = cfg.NewExtra()
	}
	todoFolded := 0
	sinceSave := 0
	var firstErr error
	for r := range results {
		if r.err != nil {
			if firstErr == nil && !isContextErr(r.err) {
				firstErr = r.err
			}
			cancel()
			continue
		}
		// Tally this shard before record takes ownership of the accums:
		// once it folds, record hands the set to the next shard to reset.
		for gi, a := range r.accums {
			out.Stats.Faults += a.Faults
			out.Stats.Retries += a.Retries
			out.Stats.Degradations += a.Degradations
			out.Stats.Failovers += a.Failovers
			live[gi].add(a)
		}
		if err := state.record(r.shard, r.accums, sets); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			cancel()
			continue
		}
		// Record folded any newly contiguous shards (possibly a cascade
		// through parked ones); release their tokens.
		for todoFolded < len(todo) && todo[todoFolded] < state.PrefixShards {
			<-tokens
			todoFolded++
		}
		if cfg.NewExtra != nil {
			extraParked[r.shard] = r.extra
			for extraNext < len(todo) {
				e, ok := extraParked[todo[extraNext]]
				if !ok {
					break
				}
				delete(extraParked, todo[extraNext])
				if err := extraFold.Merge(e); err != nil && firstErr == nil {
					firstErr = err
					cancel()
				}
				extraNext++
			}
		}
		if p := state.pending(); p > out.Stats.PeakPending {
			out.Stats.PeakPending = p
		}
		out.Stats.ShardsRun++
		ran := int64(id.shardSessions(r.shard))
		out.Stats.SessionsRun += ran
		out.Stats.PlayerSessions += ran * int64(len(id.Groups))

		if cfg.Progress != nil {
			cfg.Progress(progressSnapshot(out.Stats, time.Since(start), resumedShards, resumedSessions, retired.Load(), id, live))
		}
		sinceSave++
		if cfg.CheckpointPath != "" && sinceSave >= cfg.CheckpointEvery {
			if err := state.Save(cfg.CheckpointPath); err != nil && firstErr == nil {
				firstErr = err
				cancel()
			}
			sinceSave = 0
		}
	}

	out.Extra = extraFold
	out.Stats.Elapsed = time.Since(start)
	if cfg.CheckpointPath != "" && (sinceSave > 0 || out.Stats.ShardsRun == 0) {
		if err := state.Save(cfg.CheckpointPath); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return out, firstErr
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if state.Complete() {
		out.Report = buildReport(state, false)
	}
	return out, nil
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// liveGroup is what the progress view shows of one arm — its session count
// and the moments of two of its metrics — folded in shard completion order.
// The moments merge exactly as GroupAccum.Merge merges them, so the view
// reads as a fold of whole accumulators would.
type liveGroup struct {
	sessions              int64
	rebufferRate, avgRate stats.Welford
}

func (l *liveGroup) add(a *GroupAccum) {
	l.sessions += a.Sessions
	l.rebufferRate.Merge(a.RebufferRate.Moments)
	l.avgRate.Merge(a.AvgRate.Moments)
}

func progressSnapshot(rs RunStats, elapsed time.Duration, resumedShards int, resumedSessions, retired int64, id Identity, live []liveGroup) Progress {
	names := id.Groups
	p := Progress{
		ShardsDone:    resumedShards + rs.ShardsRun,
		ShardsTotal:   id.Shards(),
		SessionsDone:  resumedSessions + rs.SessionsRun,
		SessionsTotal: int64(id.Sessions),
		Elapsed:       elapsed,
	}
	// Throughput and ETA come from sessions the kernel has retired, not from
	// shard completions — with wide shards in flight, retired sessions are
	// the honest measure of pace.
	if elapsed > 0 {
		p.SessionsPerSec = float64(retired) / elapsed.Seconds()
	}
	if retired > 0 && len(names) > 0 && p.SessionsDone < p.SessionsTotal {
		perSession := elapsed.Seconds() / (float64(retired) / float64(len(names)))
		p.ETA = time.Duration(perSession * float64(p.SessionsTotal-p.SessionsDone) * float64(time.Second))
	}
	var control float64
	for gi, l := range live {
		d := GroupDelta{
			Name:         names[gi],
			Sessions:     l.sessions,
			RebufferRate: l.rebufferRate.Mean,
			AvgRateKbps:  l.avgRate.Mean,
		}
		if gi == 0 {
			control = d.RebufferRate
		}
		if control > 0 {
			d.VsControl = d.RebufferRate / control
		}
		p.Groups = append(p.Groups, d)
	}
	return p
}

// ReportSchema identifies the report file format.
const ReportSchema = "bba-campaign-report/v1"

// Report is the campaign's final aggregate. Built from a completed
// checkpoint's folded prefix it is byte-identical for a given identity at
// any worker count or fleet size.
type Report struct {
	Schema string `json:"schema"`
	// Truncated marks a report built from an incomplete campaign (for
	// example after SIGINT): its aggregates cover only CompletedShards of
	// ShardsTotal shards, folded in shard-index order.
	Truncated       bool     `json:"truncated,omitempty"`
	Identity        Identity `json:"identity"`
	ShardsTotal     int      `json:"shards_total"`
	CompletedShards int      `json:"completed_shards"`
	// Sessions counts the paired draws covered; PlayerSessions counts
	// player sessions (paired draws × groups).
	Sessions       int64         `json:"sessions"`
	PlayerSessions int64         `json:"player_sessions"`
	Groups         []GroupReport `json:"groups"`
}

// buildReport folds the checkpoint's recorded shards in shard-index order
// (prefix first, then any parked shards ascending) into a report. For a
// complete checkpoint everything is already in the prefix and the result is
// the canonical deterministic aggregate; for a truncated report the fold
// covers whatever completed, still in pinned order.
func buildReport(c *Checkpoint, truncated bool) *Report {
	// Summaries only read, so the prefix alone is reported in place; parked
	// shards fold into a copy, never into the checkpoint's state.
	accums := c.Prefix
	if accums == nil {
		accums = NewGroupAccums(c.Identity.Groups, c.Identity.SketchSize)
	} else if len(c.Done) > 0 {
		accums = cloneAccums(c.Prefix)
	}
	for _, d := range c.Done {
		_ = mergeAccumSets(accums, d.Groups)
	}
	r := &Report{
		Schema:          ReportSchema,
		Truncated:       truncated,
		Identity:        c.Identity,
		ShardsTotal:     c.Identity.Shards(),
		CompletedShards: c.CompletedShards(),
		Sessions:        c.SessionsDone(),
	}
	var scratch []float64
	for _, a := range accums {
		r.PlayerSessions += a.Sessions
		r.Groups = append(r.Groups, a.report(&scratch))
	}
	return r
}

// FinalReport builds the canonical report from a complete checkpoint, or an
// error if shards are missing.
func FinalReport(c *Checkpoint) (*Report, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	if !c.Complete() {
		return nil, fmt.Errorf("campaign: checkpoint covers %d of %d shards", c.CompletedShards(), c.Identity.Shards())
	}
	return buildReport(c, false), nil
}

// TruncatedReport builds a best-effort report from an incomplete
// checkpoint, marked Truncated.
func TruncatedReport(c *Checkpoint) (*Report, error) {
	if err := c.validate(); err != nil {
		return nil, err
	}
	return buildReport(c, true), nil
}

// WriteJSON writes the report as indented JSON with a fixed field order —
// the byte form the determinism tests compare.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
