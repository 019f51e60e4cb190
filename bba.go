// Package bba is a production-quality Go reproduction of
//
//	Huang, Johari, McKeown, Trunnell, Watson.
//	"A Buffer-Based Approach to Rate Adaptation:
//	 Evidence from a Large Video Streaming Service". SIGCOMM 2014.
//
// It provides the paper's buffer-based ABR algorithms (BBA-0, BBA-1,
// BBA-2, BBA-Others), the capacity-estimation Control and degenerate
// baselines they are evaluated against, and every substrate that
// evaluation needs: VBR video modelling, capacity traces, a virtual-time
// player, an HTTP streaming path, a shared-bottleneck simulator and a
// weekend-scale A/B experiment harness.
//
// This file is the facade: the handful of entry points a downstream user
// needs. The full API lives in the internal packages and is exercised by
// the Example functions in examples_test.go and the figure benchmarks in
// bench_test.go.
//
// Quick start — simulate one session:
//
//	video, _ := bba.NewVBRTitle("movie", 1800, 1)
//	result, _ := bba.RunSession(bba.SessionConfig{
//		Algorithm: bba.NewBBA2(),
//		Video:     video,
//		Trace:     bba.ConstantTrace(4*bba.Mbps, time.Hour),
//	})
//	fmt.Println(result.RebuffersPerPlayhour(), result.AvgRateKbps())
package bba

import (
	"context"
	"io"
	"math/rand"
	"time"

	"bba/internal/abr"
	"bba/internal/campaign"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// BitRate is a bit rate in bits per second.
type BitRate = units.BitRate

// Bit-rate units.
const (
	Kbps = units.Kbps
	Mbps = units.Mbps
)

// Algorithm selects the video rate for each chunk of a session. Fresh
// instances are per-session state machines.
type Algorithm = abr.Algorithm

// Factory builds a fresh single-session Algorithm instance. Batch runners
// (campaigns, the weekend experiment, the arena) take factories rather than
// instances so every session gets its own state machine.
type Factory = abr.Factory

// Result is the complete outcome of one streaming session.
type Result = player.Result

// Video is a title encoded at every ladder rate.
type Video = media.Video

// Trace is a piecewise-constant network-capacity process.
type Trace = trace.Trace

// Event is one structured session-telemetry event (chunk request/complete,
// rate switch, rebuffer start/end, buffer sample, reservoir update, seek).
type Event = telemetry.Event

// EventKind identifies the type of a telemetry Event.
type EventKind = telemetry.Kind

// Observer receives a session's telemetry events; set it on SessionConfig
// (or abtest/dash configs) to instrument a session. Nil disables telemetry
// at zero cost.
type Observer = telemetry.Observer

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc = telemetry.Func

// The telemetry event taxonomy, re-exported from internal/telemetry.
const (
	EventSessionStart    = telemetry.SessionStart
	EventChunkRequest    = telemetry.ChunkRequest
	EventChunkComplete   = telemetry.ChunkComplete
	EventRateSwitch      = telemetry.RateSwitch
	EventRebufferStart   = telemetry.RebufferStart
	EventRebufferEnd     = telemetry.RebufferEnd
	EventBufferSample    = telemetry.BufferSample
	EventReservoirUpdate = telemetry.ReservoirUpdate
	EventSeek            = telemetry.Seek
	EventSessionEnd      = telemetry.SessionEnd
)

// NewJournal returns an observer writing deterministic JSONL (one event
// per line) to w; call Flush when the session set completes.
func NewJournal(w io.Writer) *telemetry.Journal { return telemetry.NewJournal(w) }

// NewRing returns a bounded in-memory observer retaining the last
// capacity events.
func NewRing(capacity int) *telemetry.Ring { return telemetry.NewRing(capacity) }

// NewProm returns an observer aggregating events into Prometheus-text
// counters and histograms; it doubles as an http.Handler for /metrics.
func NewProm() *telemetry.Prom { return telemetry.NewProm("bba") }

// MultiObserver fans events out to every non-nil observer.
func MultiObserver(obs ...Observer) Observer { return telemetry.Multi(obs...) }

// NewBBA0 returns the paper's Section 4 baseline buffer-based algorithm:
// fixed 90 s reservoir, linear rate map, Algorithm 1 hysteresis.
func NewBBA0() Algorithm { return abr.NewBBA0() }

// NewBBA1 returns the Section 5 algorithm: dynamic reservoir and chunk map
// for VBR encodes, with the deployed outage-protection accrual.
func NewBBA1() Algorithm { return abr.NewBBA1() }

// NewBBA2 returns the Section 6 algorithm — the paper's headline design:
// a ΔB capacity-assisted startup ramp over the BBA-1 steady state.
func NewBBA2() Algorithm { return abr.NewBBA2() }

// NewBBAOthers returns the Section 7 algorithm: BBA-2 plus lookahead
// switch smoothing and a right-shift-only reservoir whose excess acts as
// outage protection.
func NewBBAOthers() Algorithm { return abr.NewBBAOthers() }

// NewControl returns a representative capacity-estimation algorithm in the
// style of the paper's production default (estimate-primary, buffer-
// adjusted), the comparison point of every figure.
func NewControl() Algorithm { return abr.NewControl() }

// NewRminAlways returns the degenerate lower-bound policy: always stream
// the lowest rate.
func NewRminAlways() Algorithm { return abr.RminAlways{} }

// NewBOLA returns the BOLA rival (Spiteri et al., arXiv:1601.06748): the
// Lyapunov buffer-based controller the arena pits against the BBA family.
func NewBOLA() Algorithm { return abr.NewBOLA() }

// NewSmoothThroughput returns the harmonic-mean capacity-rule rival.
func NewSmoothThroughput() Algorithm { return abr.NewSmoothThroughput() }

// NewHybrid returns the throughput/buffer hybrid rival (dash.js DYNAMIC
// style): throughput rule below 10 s of buffer, BOLA above.
func NewHybrid() Algorithm { return abr.NewHybrid() }

// NewAlgorithm builds an algorithm from its registered name; see
// AlgorithmNames for the registry. Unknown names return an error that
// enumerates everything registered.
func NewAlgorithm(name string) (Algorithm, error) { return abr.New(name) }

// AlgorithmNames returns every registered algorithm name in registration
// order — the valid inputs to NewAlgorithm and the -algo flags of the
// commands.
func AlgorithmNames() []string { return abr.Names() }

// RegisterAlgorithm adds a named algorithm factory to the registry, making
// it selectable by name everywhere (NewAlgorithm, experiment groups, arena
// entrants, command flags). Duplicate names panic; register from init.
func RegisterAlgorithm(name string, f Factory) { abr.Register(name, f) }

// DefaultLadder returns the 235 kb/s – 5 Mb/s encoding ladder used
// throughout the experiments.
func DefaultLadder() media.Ladder { return media.DefaultLadder() }

// NewVBRTitle generates a VBR title of the given length (in 4-second
// chunks) on the default ladder, deterministically from seed. The chunk
// sizes reproduce the paper's Figure 10 statistics (max-to-average ≈ 2).
func NewVBRTitle(title string, chunks int, seed int64) (*Video, error) {
	return media.NewVBR(media.VBRConfig{
		Title:     title,
		Ladder:    media.DefaultLadder(),
		NumChunks: chunks,
	}, rand.New(rand.NewSource(seed)))
}

// NewCBRTitle generates a constant-bitrate title on the default ladder.
func NewCBRTitle(title string, chunks int) (*Video, error) {
	return media.NewCBR(title, media.DefaultLadder(), media.DefaultChunkDuration, chunks)
}

// ConstantTrace returns a fixed-capacity trace.
func ConstantTrace(rate BitRate, d time.Duration) *Trace {
	return trace.Constant(rate, d)
}

// StepTrace returns a trace that switches from before to after at time at —
// the paper's Figure 4 scenario shape.
func StepTrace(before, after BitRate, at, total time.Duration) *Trace {
	return trace.Step(before, after, at, total)
}

// VariableTrace returns a Markov-modulated capacity trace around base whose
// 75th/25th percentile throughput ratio is approximately quartileRatio
// (the paper's Figure 1 session: 5.6), deterministically from seed.
func VariableTrace(base BitRate, quartileRatio float64, d time.Duration, seed int64) *Trace {
	return trace.Markov(trace.MarkovConfig{
		Base:     base,
		Sigma:    trace.SigmaForQuartileRatio(quartileRatio),
		Duration: d,
	}, rand.New(rand.NewSource(seed)))
}

// SessionConfig describes one simulated streaming session.
type SessionConfig struct {
	// Algorithm picks the rate for every chunk. Algorithms are stateful:
	// give each session a fresh instance (NewAlgorithm).
	Algorithm Algorithm
	// Video is the title to stream.
	Video *Video
	// Trace is the network capacity over the session.
	Trace *Trace
	// Rmin, when non-zero, applies the paper's footnote-3 promotion: the
	// session ladder starts at the lowest rate ≥ Rmin.
	Rmin BitRate
	// BufferMax is the playback buffer size (default: the paper's 240 s).
	BufferMax time.Duration
	// WatchLimit stops after this much delivered video (default: the
	// whole title).
	WatchLimit time.Duration
	// Observer, when non-nil, receives the session's telemetry events in
	// session-clock order (see Event). Nil disables telemetry at zero
	// cost.
	Observer Observer
}

// RunSession simulates the session in virtual time and returns its result.
// Multi-hour sessions simulate in microseconds to milliseconds.
func RunSession(cfg SessionConfig) (*Result, error) {
	return RunSessionContext(context.Background(), cfg)
}

// RunSessionContext is RunSession with cancellation: the context is
// checked once per chunk, so long simulations (or batches of them) stop
// promptly when the caller cancels or a deadline passes.
func RunSessionContext(ctx context.Context, cfg SessionConfig) (*Result, error) {
	return player.RunContext(ctx, player.Config{
		Algorithm:  cfg.Algorithm,
		Stream:     abr.NewStream(cfg.Video, cfg.Rmin),
		Trace:      cfg.Trace,
		BufferMax:  cfg.BufferMax,
		WatchLimit: cfg.WatchLimit,
		Observer:   cfg.Observer,
	})
}

// ObservedTrace reconstructs the capacity process a finished session
// experienced, from the per-chunk throughput its EventChunkComplete events
// carry: record the session's events through SessionConfig.Observer and
// pass them here. Feed the trace back into RunSession with a different
// algorithm for a counterfactual — the paper's Figure 4 question ("this
// rebuffer was entirely unnecessary").
func ObservedTrace(events []Event) (*Trace, error) {
	return player.ObservedTrace(events)
}

// Experiment runs a weekend-scale paired A/B test across the paper's six
// groups (Control, Rmin Always, BBA-0/1/2/Others) over a synthetic
// population calibrated to the paper's variability statistics. days and
// sessionsPerWindow size the population; the result is deterministic in
// seed. The outcome holds each group's per-window aggregates, the campaign
// report, and every pair of groups compared draw by draw
// (WeekendOutcome.Pairs, whose pooled rebuffer ratio SignificanceRebuffers
// tests); no session is retained, so memory does not grow with the
// population.
func Experiment(seed int64, days, sessionsPerWindow int) (*campaign.WeekendOutcome, error) {
	return campaign.RunWeekend(context.Background(), campaign.WeekendConfig(seed, days, sessionsPerWindow))
}
