// Package soak is the continuous-verification layer: a daemon that
// exercises the whole streaming stack — dashserver origins, netem-shaped
// real-socket sessions, seeded fault weather, the collection pipeline —
// cycle after cycle, and checks paper-level invariants on the journals
// each cycle produces. Where the test suite asks "does this function
// behave", the soak rig asks "does the assembled system keep its
// promises while it runs": no rebuffer while the buffer sits above the
// algorithm's reservoir, endpoint failover converging back to the
// primary once it heals, bounded retry on the degrade path, and the
// collector's archive byte-agreeing with the local journals it was fed.
package soak

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"slices"
	"sync"
	"time"

	"bba/internal/abr"
	"bba/internal/archive"
	"bba/internal/collect"
	"bba/internal/dash"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/netem"
	"bba/internal/obs"
	"bba/internal/player"
	"bba/internal/stats"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// Config parameterizes the soak runner. The zero value is usable: every
// field has a default chosen so one cycle exercises fault injection,
// failover, shaped links and the collector cross-check in about ten
// seconds of wall clock.
type Config struct {
	// Sessions is the number of concurrent shaped client sessions per
	// cycle (default 6).
	Sessions int
	// Seed is the master seed; every cycle's fault schedules, session
	// seeds and title draw derive from (Seed, cycle), so a failing cycle
	// is reproducible by number.
	Seed int64
	// Watch bounds each session's delivered video (default 12s). The
	// playback buffer is capped at a quarter of it, so ON-OFF pacing
	// stretches every session over most of the watch window — the wall
	// time the fault schedule plays out against.
	Watch time.Duration
	// ChunkMS is the title's chunk duration in milliseconds (default 500).
	ChunkMS int
	// ShapeKbps is each session's constant downstream capacity before
	// client-side blackouts are composed onto it (default 4000).
	ShapeKbps int
	// Algorithms are rotated across the cycle's sessions (registry names;
	// default a mix of buffer-based and estimator algorithms).
	Algorithms []string
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Sessions <= 0 {
		c.Sessions = 6
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Watch <= 0 {
		c.Watch = 12 * time.Second
	}
	if c.ChunkMS <= 0 {
		c.ChunkMS = 500
	}
	if c.ShapeKbps <= 0 {
		c.ShapeKbps = 4000
	}
	if len(c.Algorithms) == 0 {
		c.Algorithms = []string{"BBA-1", "BBA-2", "Control", "SmoothThroughput", "BBA-Others", "BOLA"}
	}
	return c
}

// gated lists the invariants this configuration exists to exercise — a run
// under it that never decides one has verified nothing about it: the
// reservoir claim when the rotation reaches an algorithm that reports a
// reservoir, and always failover convergence (every cycle's primary injects
// faults beside a clean secondary) and collector agreement.
func (c Config) gated() []string {
	var gated []string
	for i := 0; i < c.Sessions && i < len(c.Algorithms); i++ {
		alg, _ := abr.New(c.Algorithms[i]) // an unknown name fails its session, and with it the cycle
		if _, ok := alg.(abr.ReservoirReporter); ok {
			gated = append(gated, InvNoRebufferAboveReservoir)
			break
		}
	}
	return append(gated, InvFailoverConverges, InvCollectorAgreement)
}

// chunkDuration returns the configured chunk duration.
func (c Config) chunkDuration() time.Duration {
	return time.Duration(c.ChunkMS) * time.Millisecond
}

// fetchPolicy is the tight retry envelope soak sessions run under: fast
// enough that a fault-window chunk resolves within a couple of seconds,
// generous enough (six attempts across two endpoints) that a clean
// secondary always rescues the chunk.
func fetchPolicy(seed int64) dash.FetchPolicy {
	return dash.FetchPolicy{
		ChunkTimeout: 2 * time.Second,
		MaxAttempts:  6,
		BackoffBase:  50 * time.Millisecond,
		BackoffCap:   400 * time.Millisecond,
		Seed:         seed,
	}
}

// SessionRecord is one session's complete account: its captured journal,
// the player result, and the schedule facts the invariant checks need.
type SessionRecord struct {
	// Session is the journal label, "c<cycle>.s<index>.<algorithm>".
	Session string
	// Seed is the session's derived seed.
	Seed int64
	// Algorithm is the registry name the session ran.
	Algorithm string
	// Events is the session's captured journal, in emission order.
	Events []telemetry.Event
	// Result is the player result (nil when Err is non-nil).
	Result *player.Result
	// Err is a hard session error (manifest unreachable, context
	// cancelled); chunk-level failure is not an error, it shows up as
	// Result.Incomplete.
	Err error
	// TailChunks is how many chunk fetches the session had left after
	// the fault horizon closed (the last 3/4 of the watch window). The
	// failover invariant is only decidable when this leaves room for a
	// full fail-back streak (dash.FailBackAfter successes).
	TailChunks int
	// MaxAttempts is the per-chunk attempt budget the session ran under.
	MaxAttempts int
	// OutageBudget is the total client-side blackout time scheduled for
	// the session; the rebuffer invariant's slack grows with it.
	OutageBudget time.Duration
	// ChunkDuration is the title's chunk duration.
	ChunkDuration time.Duration
	// ChunkTimeout is the per-attempt timeout; a zero-retry download can
	// never have taken longer than this.
	ChunkTimeout time.Duration
	// Archive is what the cycle's store holds for this session, read back
	// with archive.Store.Scan and re-encoded as journal JSONL (empty when
	// nothing was archived).
	Archive []byte
	// Dropped counts shipper-side event and frame loss; any loss fails
	// the collector-agreement invariant.
	Dropped int64
}

// Cycle is one completed soak cycle.
type Cycle struct {
	// Index is the cycle number.
	Index int
	// Sessions are the cycle's session records, in session order.
	Sessions []SessionRecord
	// Violations are every invariant breach the cycle's journals show.
	Violations []Violation
	// Checks counts invariant evaluations by name, Skipped the sessions an
	// invariant could not be checked against (single endpoint, too short a
	// fault-free tail, no reservoir events): per invariant, every session
	// lands in exactly one of the two.
	Checks, Skipped map[string]int
	// Store is the cycle store's footprint when its collector stopped:
	// the blocks compaction sealed and the events left in the WAL tail.
	Store archive.RunStats
	// Duration is the cycle's wall-clock time.
	Duration time.Duration
}

// Pass reports whether the cycle completed with zero violations.
func (c *Cycle) Pass() bool { return len(c.Violations) == 0 }

// Runner executes soak cycles. Create one with NewRunner and drive it
// with RunCycle (one cycle) or Run (a bounded or unbounded sequence).
type Runner struct {
	cfg   Config
	start time.Time

	// Observer, when non-nil, receives a SoakCycle event per completed
	// cycle and an SLOBreach event per violation — the daemon's own
	// journal, in the same event vocabulary as the sessions it drives.
	Observer telemetry.Observer
	// Metrics, when non-nil, accumulates SLO counters per cycle.
	Metrics *Metrics
}

// NewRunner returns a Runner for cfg with defaults applied.
func NewRunner(cfg Config) *Runner {
	return &Runner{cfg: cfg.withDefaults(), start: time.Now()}
}

// Config returns the runner's effective (defaulted) configuration.
func (r *Runner) Config() Config { return r.cfg }

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// originFaultConfig draws the primary origin's HTTP-path fault weather
// for one cycle: 5xx bursts, stalled bodies, connection resets and
// latency spikes, all confined to the first quarter of the watch window
// so every session has time to fail over AND fail back before it ends.
func originFaultConfig(watch time.Duration) faults.ScheduleConfig {
	window := watch / 4
	perHour := func(n float64) float64 { return n / window.Hours() }
	return faults.ScheduleConfig{
		Horizon:       window,
		ServerErrors:  faults.EpisodeConfig{PerHour: perHour(2), MinDuration: 300 * time.Millisecond, MaxDuration: 700 * time.Millisecond},
		StallBodies:   faults.EpisodeConfig{PerHour: perHour(1), MinDuration: 300 * time.Millisecond, MaxDuration: 600 * time.Millisecond},
		ConnResets:    faults.EpisodeConfig{PerHour: perHour(1), MinDuration: 200 * time.Millisecond, MaxDuration: 500 * time.Millisecond},
		LatencySpikes: faults.EpisodeConfig{PerHour: perHour(1), MinDuration: 300 * time.Millisecond, MaxDuration: 600 * time.Millisecond},
		LatencyMin:    50 * time.Millisecond,
		LatencyMax:    150 * time.Millisecond,
	}
}

// blackoutConfig draws a session's client-side capacity blackouts over
// the whole watch window.
func blackoutConfig(watch time.Duration) faults.ScheduleConfig {
	return faults.ScheduleConfig{
		Horizon:   watch,
		Blackouts: faults.EpisodeConfig{PerHour: 2 / watch.Hours(), MinDuration: 300 * time.Millisecond, MaxDuration: 800 * time.Millisecond},
	}
}

// RunCycle executes one soak cycle: boot the origins, drive the configured
// sessions concurrently through shaped connections under the cycle's
// seeded fault schedules, then check every invariant on the captured
// journals. The returned Cycle holds the verdicts; the error is
// reserved for infrastructure failure (a port that will not bind, a
// cancelled context), never for invariant breaches.
func (r *Runner) RunCycle(ctx context.Context, cycle int) (*Cycle, error) {
	cfg := r.cfg
	cycleSeed := int64(stats.Mix(uint64(cfg.Seed), uint64(cycle)))
	cycleStart := time.Now()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	endpoints, shutdown, err := r.bootOrigins(cycle, cycleSeed)
	if err != nil {
		return nil, err
	}
	defer shutdown()

	// The collection pipeline on loopback HTTP, archiving into a store
	// that lives as long as the cycle.
	run := fmt.Sprintf("soak-c%d", cycle)
	dir, err := os.MkdirTemp("", "bbasoak-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := archive.Open(archive.Config{Dir: dir, CompactEvents: CompactEvents})
	if err != nil {
		return nil, err
	}
	defer store.Close() // read back and measured before this; the directory goes next
	colAddr, colStop, err := startCollector(store)
	if err != nil {
		return nil, err
	}
	defer colStop() // idempotent: the early stop below is the normal path

	records := make([]SessionRecord, cfg.Sessions)
	shippers := make([]*collect.Shipper, cfg.Sessions)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Sessions; i++ {
		alg := cfg.Algorithms[i%len(cfg.Algorithms)]
		seed := int64(stats.Mix(uint64(cycleSeed), uint64(i)))
		name := fmt.Sprintf("c%d.s%d.%s", cycle, i, alg)
		rec := &records[i]
		rec.Session = name
		rec.Seed = seed
		rec.Algorithm = alg

		shipper, err := collect.NewShipper(collect.ShipperConfig{
			Addr:          "http://" + colAddr,
			Run:           run,
			Session:       uint64(i + 1),
			FlushInterval: -1, // Close seals the session's last batch
			Retry:         collect.RetryPolicy{Seed: seed},
		})
		if err != nil {
			return nil, err
		}
		shippers[i] = shipper

		wg.Add(1)
		go func() {
			defer wg.Done()
			r.runSession(ctx, rec, endpoints, shipper)
		}()
	}
	wg.Wait()

	for i, s := range shippers {
		if err := s.Close(); err != nil {
			records[i].Dropped++ // a flush that missed Close's deadline counts as loss
		}
		st := s.Stats()
		records[i].Dropped += st.EventsDropped + st.FramesDropped
	}
	colStop()
	for i := range records {
		if records[i].Archive, err = readBack(store, run, records[i].Session); err != nil {
			return nil, fmt.Errorf("soak: reading back %s: %w", records[i].Session, err)
		}
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}

	c := &Cycle{
		Index:    cycle,
		Sessions: records,
		Checks:   make(map[string]int),
		Skipped:  make(map[string]int),
		Duration: time.Since(cycleStart),
	}
	for _, st := range store.Stats() {
		if st.Run == run {
			c.Store = st
		}
	}
	for i := range records {
		vs, checked, skipped := CheckSession(&records[i])
		c.Violations = append(c.Violations, vs...)
		for _, name := range checked {
			c.Checks[name]++
		}
		for _, name := range skipped {
			c.Skipped[name]++
		}
	}
	r.observeCycle(c)
	for _, v := range c.Violations {
		logf("cycle %d: VIOLATION %s", cycle, v)
	}
	skipped := ""
	for _, name := range InvariantNames() {
		if n := c.Skipped[name]; n > 0 {
			skipped += fmt.Sprintf("; %s skipped ×%d", name, n)
		}
	}
	logf("cycle %d: %d sessions, %d violations in %v; store %d blocks + %d WAL events%s",
		cycle, len(records), len(c.Violations), c.Duration.Round(10*time.Millisecond), c.Store.Blocks, c.Store.WALEvents, skipped)
	return c, nil
}

// bootOrigins starts the cycle's two origins on one title: the primary,
// injecting the cycle's seeded HTTP faults, and the clean secondary that
// absorbs failover.
func (r *Runner) bootOrigins(cycle int, cycleSeed int64) (endpoints []string, shutdown func(), err error) {
	cfg := r.cfg
	video, err := media.NewVBR(media.VBRConfig{
		Title:         fmt.Sprintf("soak-c%d", cycle),
		Ladder:        media.DefaultLadder(),
		ChunkDuration: cfg.chunkDuration(),
		NumChunks:     int(cfg.Watch/cfg.chunkDuration()) * 2,
	}, newRand(cycleSeed))
	if err != nil {
		return nil, nil, err
	}
	var origins []*obs.Server
	shutdown = func() {
		for _, o := range origins {
			o.Close(context.Background())
		}
	}
	for i := 0; i < 2; i++ {
		srv, err := dash.NewServer(video)
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		if i == 0 {
			srv.Injector = &faults.HTTPInjector{
				Schedule:   faults.GenerateSeeded(originFaultConfig(cfg.Watch), cycleSeed),
				Seed:       cycleSeed,
				StallSleep: 2 * time.Second,
			}
		}
		o, err := dash.StartOrigin("127.0.0.1:0", srv, dash.OriginConfig{ShutdownGrace: 3 * time.Second})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		origins = append(origins, o)
		endpoints = append(endpoints, o.URL())
	}
	return endpoints, shutdown, nil
}

// runSession drives one shaped, fault-weathered session and fills rec.
func (r *Runner) runSession(ctx context.Context, rec *SessionRecord, endpoints []string, shipper *collect.Shipper) {
	cfg := r.cfg
	fp := fetchPolicy(rec.Seed)
	rec.MaxAttempts = fp.MaxAttempts
	rec.ChunkDuration = cfg.chunkDuration()
	rec.ChunkTimeout = fp.ChunkTimeout
	rec.TailChunks = int((cfg.Watch - cfg.Watch/4) / cfg.chunkDuration())

	// The session's downstream path: a constant link with seeded
	// blackouts composed onto it, shaped at the socket.
	base := trace.Constant(units.BitRate(cfg.ShapeKbps)*units.Kbps, 4*cfg.Watch+time.Minute)
	blackouts := faults.GenerateSeeded(blackoutConfig(cfg.Watch), rec.Seed)
	for _, f := range blackouts.Faults() {
		rec.OutageBudget += f.Duration
	}
	shaped, err := blackouts.ApplyToTrace(base)
	if err != nil {
		rec.Err = err
		return
	}
	shaper := netem.NewShaper(shaped)
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return netem.NewConn(c, shaper), nil
		},
		MaxIdleConnsPerHost: 2,
	}
	defer transport.CloseIdleConnections()

	algorithm, err := abr.New(rec.Algorithm)
	if err != nil {
		rec.Err = err
		return
	}
	capture := &telemetry.Capture{}
	// A quarter of the watch window, floored at two chunks so the ON-OFF
	// loop always has room to operate even under tiny test windows.
	bufMax := cfg.Watch / 4
	if floor := 2 * cfg.chunkDuration(); bufMax < floor {
		bufMax = floor
	}
	rec.Result, rec.Err = dash.Stream(ctx, dash.ClientConfig{
		Endpoints:  endpoints,
		Fetch:      fp,
		HTTPClient: &http.Client{Transport: transport},
		Algorithm:  algorithm,
		BufferMax:  bufMax,
		WatchLimit: cfg.Watch,
		// Stamped before the fan-out: the collector-agreement invariant
		// compares the capture's bytes with the shipped copy's.
		Observer: telemetry.Stamp{Session: rec.Session, Next: telemetry.Multi(capture, shipper)},
	})
	rec.Events = capture.Events
}

// observeCycle reports a finished cycle to the runner's Observer and
// Metrics.
func (r *Runner) observeCycle(c *Cycle) {
	if r.Metrics != nil {
		r.Metrics.ObserveCycle(c)
	}
	if r.Observer == nil {
		return
	}
	label := "pass"
	if !c.Pass() {
		label = "fail"
	}
	at := time.Since(r.start)
	for _, v := range c.Violations {
		r.Observer.OnEvent(telemetry.Event{
			Kind: telemetry.SLOBreach, At: at, Chunk: c.Index,
			RateIndex: -1, PrevRateIndex: -1,
			Session: v.Session, Label: v.Invariant,
		})
	}
	r.Observer.OnEvent(telemetry.Event{
		Kind: telemetry.SoakCycle, At: at, Chunk: c.Index,
		RateIndex: -1, PrevRateIndex: -1,
		Bytes: int64(len(c.Sessions)), Duration: c.Duration, Label: label,
	})
}

// Run executes cycles sequentially until the count is reached (cycles
// <= 0 means run until ctx is cancelled), pausing interval between
// them. It returns the number of failed cycles and the gated invariants
// (Config.gated) that no session of any cycle decided — a run cannot vouch
// for what it never evaluated; the error reports infrastructure failure
// or context cancellation (a cancelled unbounded run returns a nil error —
// that is the daemon's normal exit).
func (r *Runner) Run(ctx context.Context, cycles int, interval time.Duration) (failed int, undecided []string, err error) {
	decided := make(map[string]bool)
	for i := 0; cycles <= 0 || i < cycles; i++ {
		c, err := r.RunCycle(ctx, i)
		if err != nil {
			if cycles <= 0 && ctx.Err() != nil {
				return failed, nil, nil
			}
			return failed, nil, err
		}
		if !c.Pass() {
			failed++
		}
		for name := range c.Checks {
			decided[name] = true
		}
		if interval > 0 && (cycles <= 0 || i+1 < cycles) {
			select {
			case <-ctx.Done():
				if cycles <= 0 {
					return failed, nil, nil
				}
				return failed, nil, ctx.Err()
			case <-time.After(interval):
			}
		}
	}
	for _, name := range r.cfg.gated() {
		if !decided[name] {
			undecided = append(undecided, name)
		}
	}
	return failed, undecided, nil
}

// CompactEvents is the WAL size, in events, at which a cycle's store seals
// a block: one shipper frame's worth, so a CI-gate cycle (four sessions of
// about 50 events at a 6s watch) seals blocks and every cycle runs the
// WAL, compaction, the block reader and Scan.
const CompactEvents = 64

// startCollector boots a real collector on loopback HTTP, archiving every
// admitted event batch into store.
func startCollector(store *archive.Store) (addr string, stop func(), err error) {
	col := collect.NewCollector(collect.CollectorConfig{Archive: store})
	srv, err := obs.Serve("127.0.0.1:0", col.Handler(), 3*time.Second)
	if err != nil {
		return "", nil, err
	}
	return srv.Addr(), func() { srv.Close(context.Background()) }, nil
}

// readBack returns what store archived for one session of run: its events
// in admission order, re-encoded as the journal JSONL the shipper sent.
// Scan matches the session label exactly. A run the store has never seen —
// every session failed before emitting — reads as empty.
func readBack(store *archive.Store, run, session string) ([]byte, error) {
	if !slices.Contains(store.Runs(), run) {
		return nil, nil
	}
	var out []byte
	err := store.Scan(archive.Query{Run: run, Session: session}, func(e telemetry.Event) bool {
		out = telemetry.AppendJSONL(out, e)
		return true
	})
	return out, err
}
