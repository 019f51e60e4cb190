// Package player is the chunk-granularity playback engine: it drives an
// ABR algorithm against a capacity trace and a video title, reproducing the
// client model of the paper's Figures 2 and 11.
//
// The engine runs in virtual time. The client requests one chunk at a time
// (it "cannot cancel an ongoing video chunk download"), observes how long
// the download took, lets the playback buffer drain meanwhile, and asks the
// algorithm for the next rate only when the chunk completes. When the
// buffer fills, the client idles until there is space before requesting
// again — the ON-OFF pattern discussed in Section 8. When it empties
// mid-download, playback freezes: a rebuffer event.
//
// Because everything is driven by download-completion arithmetic over the
// trace integral, thousands of multi-hour sessions simulate in milliseconds
// while remaining observationally identical to a wall-clock player.
package player

import (
	"context"
	"errors"
	"time"

	"bba/internal/abr"
	"bba/internal/telemetry"
	"bba/internal/trace"
)

// Config describes one streaming session.
type Config struct {
	// Algorithm is the rate-selection algorithm; a fresh per-session
	// instance (algorithms are stateful).
	Algorithm abr.Algorithm
	// Stream is the session's view of the title (possibly with a
	// promoted R_min).
	Stream abr.Stream
	// Trace is the capacity process the downloads run against.
	Trace *trace.Trace
	// BufferMax is the playback buffer capacity; 0 means the paper's
	// 240 s browser-player buffer.
	BufferMax time.Duration
	// WatchLimit stops the session after this much video has been
	// delivered to the viewer; 0 watches the whole title.
	WatchLimit time.Duration
	// Seeks are viewer seeks, in ascending AfterPlayed order: once that
	// much video has been delivered, the buffer is flushed and the next
	// request jumps to ToChunk. Startup-capable algorithms re-enter
	// their startup phase (abr.SeekAware).
	Seeks []Seek
	// Observer, when non-nil, receives the session's telemetry events
	// in session-clock order. A nil observer costs nothing: no event
	// values are built and no buffer state is polled.
	Observer telemetry.Observer
	// Injector, when non-nil, subjects each chunk download attempt to
	// injected faults. Failed attempts are retried with deterministic
	// capped-exponential backoff; when the per-rate budget runs out the
	// session degrades to the lowest rate and shrinks the request instead
	// of aborting. A nil injector costs nothing: the download path is the
	// uninstrumented one.
	Injector FaultInjector
	// Retry seeds the retry backoff's jitter. The budget (3 attempts) and
	// the backoff (200 ms doubling to a 5 s cap) are fixed.
	Retry RetryPolicy
}

// FaultInjector decides per-attempt chunk failures and per-request latency
// for a session under injected faults. *faults.SessionInjector satisfies
// it. Implementations must be pure functions of their arguments so
// sessions stay deterministic and replayable.
type FaultInjector interface {
	// ChunkFault reports whether this attempt (0-based) at chunk fails at
	// session time now, the telemetry label of the fault, and the virtual
	// time the failed attempt costs.
	ChunkFault(now time.Duration, chunk, attempt int) (label string, delay time.Duration, failed bool)
	// RequestLatency is the extra first-byte delay a request issued at
	// session time now pays (latency spikes).
	RequestLatency(now time.Duration) time.Duration
}

// RetryPolicy seeds the player's chunk-retry behaviour under faults.
type RetryPolicy struct {
	// Seed drives the deterministic backoff jitter.
	Seed int64
}

// The player's one retry behaviour: retryBudget failed attempts at the
// current rate trigger degradation to the lowest rate, and the backoff
// between attempts doubles from backoffBase to backoffCap. At the lowest
// rate the player keeps retrying: every attempt advances the session
// clock, so it always outlives a finite fault episode.
const (
	retryBudget = 3
	backoffBase = 200 * time.Millisecond
	backoffCap  = 5 * time.Second
)

// Seek is one viewer seek.
type Seek struct {
	// AfterPlayed triggers the seek once this much video has played.
	AfterPlayed time.Duration
	// ToChunk is the chunk index playback jumps to.
	ToChunk int
}

// SeekRecord logs an executed seek.
type SeekRecord struct {
	// At is the session clock when the seek happened.
	At time.Duration
	// ToChunk is where playback jumped.
	ToChunk int
	// JoinDelay is the wait for the first post-seek chunk.
	JoinDelay time.Duration
}

// Result is the complete outcome of one session. Every time in it is on
// the session clock — zero when the session starts (for a sharedlink player,
// at its StartAt), advanced by the ON-OFF waits and the downloads — whichever
// driver ran the session. The per-chunk log is the session's ChunkComplete
// events (Config.Observer); the Result keeps only the rate record every
// metric reads.
type Result struct {
	Algorithm string

	// JoinDelay is the session time at which the first chunk arrived
	// (excluded from playback metrics, as in the paper).
	JoinDelay time.Duration
	// Played is total video time delivered to the viewer.
	Played time.Duration
	// Rebuffers is the number of rebuffer events.
	Rebuffers int
	// StallTime is the total time playback was frozen.
	StallTime time.Duration
	// Switches is the number of video-rate changes between consecutive
	// chunks.
	Switches int
	// Incomplete marks a session whose download could never finish
	// (the trace ended in a permanent outage).
	Incomplete bool
	// Faults counts injected faults that hit chunk attempts.
	Faults int
	// Retries counts chunk re-attempts after injected failures.
	Retries int
	// Degradations counts drops to the lowest rate under repeated failure.
	Degradations int
	// Failovers counts endpoint switches (HTTP client sessions only).
	Failovers int
	// Seeks logs the viewer seeks that executed.
	Seeks []SeekRecord
	// End is the session time at which the viewer stops watching: after
	// the buffered tail has played out when the session ends on its own
	// (the tail is accounted, never slept through), or the moment a driver
	// cut the session short with Finish.
	End time.Duration

	// The rate record: the session-ladder index of each downloaded chunk
	// in download order, and the ladder's kb/s values it indexes (the
	// title's table, shared, never copied). With the two start-time boundary counters
	// below it reproduces every rate-derived metric: chunk start times are
	// monotone non-decreasing, so "chunks starting before the cutoff" is a
	// prefix count.
	rateIdx []uint8
	kbps    []float64
	// startupChunks counts chunks that started before 1 minute,
	// steadySkip those that started before 2 minutes.
	startupChunks int
	steadySkip    int
}

// maxRungs bounds a session ladder: the rate record keeps one uint8 rung
// index per chunk.
const maxRungs = 256

// reset clears r for reuse, retaining record storage so a long-lived
// Session re-running sessions allocates nothing here in steady state.
func (r *Result) reset(alg string, kbps []float64) {
	rates := r.rateIdx[:0]
	seeks := r.Seeks[:0]
	*r = Result{Algorithm: alg, rateIdx: rates, kbps: kbps, Seeks: seeks}
}

// ChunkCount returns the number of downloaded chunks.
func (r *Result) ChunkCount() int { return len(r.rateIdx) }

// ChunkRateKbps returns chunk i's nominal video rate in kb/s, in download
// order.
func (r *Result) ChunkRateKbps(i int) float64 { return r.kbps[r.rateIdx[i]] }

// ErrNoProgress is returned when the first chunk can never download (the
// trace is a dead link from the start).
var ErrNoProgress = errors.New("player: download cannot make progress")

// Run simulates the session to completion and returns its Result.
func Run(cfg Config) (*Result, error) { return run(nil, cfg) }

// RunContext is Run with cancellation: the context is checked once per
// chunk, so multi-hour (or million-session) simulations stop promptly when
// the caller cancels. A nil context behaves like Run.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return run(ctx, cfg)
}

// run drives a Session step by step — the one-shot form of the reusable
// engine. The Session owns its Result, so hand ownership to the caller by
// detaching it before returning.
func run(ctx context.Context, cfg Config) (*Result, error) {
	var ss Session
	if err := ss.Start(cfg); err != nil {
		return nil, err
	}
	for {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		done, err := ss.Step()
		if err != nil {
			return nil, err
		}
		if done {
			res := ss.res
			ss.res = nil
			return res, nil
		}
	}
}

// chunkCapacity sizes the rate record's preallocation: the title length,
// tightened by the watch limit when one applies. A couple of extra slots
// absorb the chunks a stall-truncated or seek-shifted session downloads
// beyond the limit; the hint only avoids growth reallocations, correctness
// never depends on it.
func chunkCapacity(s abr.Stream, v time.Duration, watchLimit time.Duration) int {
	n := s.NumChunks()
	if watchLimit > 0 && v > 0 {
		if byLimit := int(watchLimit/v) + 2; byLimit < n {
			n = byLimit
		}
	}
	return n
}

// PlayHours returns the played time in hours.
func (r *Result) PlayHours() float64 { return r.Played.Hours() }

// RebuffersPerPlayhour is the paper's headline metric.
func (r *Result) RebuffersPerPlayhour() float64 {
	h := r.PlayHours()
	if h == 0 {
		return 0
	}
	return float64(r.Rebuffers) / h
}

// SwitchesPerPlayhour is the video-switching-rate metric of Figures 9, 20
// and 22.
func (r *Result) SwitchesPerPlayhour() float64 {
	h := r.PlayHours()
	if h == 0 {
		return 0
	}
	return float64(r.Switches) / h
}

// AvgRateKbps is the delivered average video rate: each chunk contributes
// its nominal rate weighted by its fixed playback duration.
func (r *Result) AvgRateKbps() float64 { return r.avgRateRange(0, len(r.rateIdx)) }

// SteadyAvgRateKbps is the average video rate excluding the session's first
// two minutes — the paper's Figure 18 approximation of steady state. It
// returns 0 when the session never reaches steady state.
func (r *Result) SteadyAvgRateKbps() float64 {
	return r.avgRateRange(r.steadySkip, len(r.rateIdx))
}

// StartupAvgRateKbps is the average rate over the first minute, the metric
// behind "the BBA-1 algorithm achieves 700kb/s less than the Control" in
// the first 60 seconds.
func (r *Result) StartupAvgRateKbps() float64 { return r.avgRateRange(0, r.startupChunks) }

// avgRateRange averages the rates of chunks [from, to) in download order,
// or returns 0 for an empty range.
func (r *Result) avgRateRange(from, to int) float64 {
	if to <= from {
		return 0
	}
	var sum float64
	for i := from; i < to; i++ {
		sum += r.ChunkRateKbps(i)
	}
	return sum / float64(to-from)
}

// ErrNoObservations is returned by ObservedTrace for a session with no
// completed downloads.
var ErrNoObservations = errors.New("player: session has no download observations")

// ObservedTrace reconstructs the capacity process a finished session
// experienced from its events (Config.Observer), for the counterfactual the
// paper's Figure 4 poses: given the network one client actually saw, what
// would another algorithm have done? Run that algorithm over the returned
// trace. Only ChunkComplete events are read.
//
// Each download interval carries the chunk's measured throughput, and the
// idle gap before a download (an ON-OFF pause observes nothing) carries the
// upcoming measurement backward. Replaying the session's own algorithm over
// its reconstruction lands close to, not on, its decisions.
func ObservedTrace(events []telemetry.Event) (*trace.Trace, error) {
	var segs []trace.Segment
	cursor := time.Duration(0)
	for _, e := range events {
		if e.Kind != telemetry.ChunkComplete || e.Duration <= 0 || e.Throughput <= 0 {
			continue
		}
		// The client chose not to measure, not the network to vanish.
		if start := e.At - e.Duration; start > cursor {
			segs = append(segs, trace.Segment{Duration: start - cursor, Rate: e.Throughput})
			cursor = start
		}
		if e.At > cursor {
			segs = append(segs, trace.Segment{Duration: e.At - cursor, Rate: e.Throughput})
			cursor = e.At
		}
	}
	if len(segs) == 0 {
		return nil, ErrNoObservations
	}
	return trace.New(segs)
}
