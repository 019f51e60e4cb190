package player

import (
	"errors"
	"fmt"
	"time"

	"bba/internal/abr"
	"bba/internal/buffer"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// Session is the playback engine in resumable, reusable form: the complete
// state of one streaming session between chunk requests, and the one
// implementation of the paper's per-chunk loop — wait for buffer space
// (ON-OFF, Section 8), pick a rate from the buffer, download, account the
// drain and any rebuffer. The loop is split where its drivers differ, at
// who makes time pass while the bytes move:
//
//	Request  due seek, watch-limit stop, ON-OFF wait, rate decision
//	Deliver  drain over the download, rebuffer bracketing, the rate record
//	Abandon  a chunk that can never arrive: outage marker, Incomplete
//	Finish   stop early, at the current session clock
//
// Three drivers sit between Request and Deliver. Step (under Run, the batch
// kernel and every campaign) integrates the download over a capacity trace
// in virtual time; dash.Stream sleeps the wait and fetches over HTTP on the
// wall clock; sharedlink lets the wait pass and moves the bytes as one flow
// of a processor-sharing link. Pacing, the resume threshold, what counts as a
// rebuffer, what JoinDelay and End mean and the order events fire in are
// decided here and nowhere else, which is also what keeps batch-mode
// campaign reports byte-identical to scalar ones.
//
// A zero Session is ready for Start. Starting again after a session ends
// reuses every retained allocation — the Result, its record storage, the
// buffer and the trace cursor — so a long-lived Session streaming many
// sessions back to back allocates nothing in steady state beyond what the
// configured algorithm itself allocates. The Result returned by Result is
// owned by the Session and overwritten by the next Start; callers that
// keep it across sessions must copy what they need first.
//
// A Session is not safe for concurrent use; batch lanes each own one.
type Session struct {
	// Per-session configuration, captured by Start.
	alg    abr.Algorithm
	s      abr.Stream
	v      time.Duration
	ladder media.Ladder
	bufMax time.Duration
	watch  time.Duration
	n      int

	// Reused storage: buffer, cursor and result live inside the Session
	// so per-lane state can sit in flat arrays with no per-session
	// allocation.
	buf    buffer.Buffer
	link   trace.Cursor
	traced bool // Start was given a trace; only Step needs one
	res    *Result

	// The session clock and the per-chunk loop state.
	k         int
	now       time.Duration
	prevIdx   int
	lastTP    units.BitRate
	lastDl    time.Duration
	lastBytes int64

	seeks      []Seek
	justSought bool

	// Telemetry state; only touched when obs != nil, keeping the nil
	// path identical to the uninstrumented engine.
	obs           telemetry.Observer
	stallBase     time.Duration // buf.StallTime() when the open rebuffer began
	lastReservoir time.Duration
	reporter      abr.ReservoirReporter

	// Fault state; only consulted when inj != nil.
	inj FaultInjector
	rp  RetryPolicy

	finished bool
}

// Start (re)initializes the session from cfg. A Session that already ran
// keeps its arena storage; only the logical state resets.
func (ss *Session) Start(cfg Config) error {
	if cfg.Algorithm == nil {
		return errors.New("player: nil algorithm")
	}
	bufMax := cfg.BufferMax
	if bufMax <= 0 {
		bufMax = buffer.DefaultMax
	}
	ss.alg = cfg.Algorithm
	ss.s = cfg.Stream
	ss.v = ss.s.ChunkDuration()
	ss.ladder = ss.s.Ladder()
	ss.bufMax = bufMax
	ss.watch = cfg.WatchLimit
	ss.n = ss.s.NumChunks()
	if len(ss.ladder) > maxRungs {
		return fmt.Errorf("player: a session ladder holds at most %d rungs, got %d", maxRungs, len(ss.ladder))
	}

	ss.buf.Reset(bufMax)
	// A stalled session refills in add-only steps of V and the ON-OFF wait
	// stops adding above bufMax-V, so a resume threshold past that point is
	// unreachable: the stall would never end and the next AddChunk would
	// overflow. Clamp it so every stall can end (a no-op at the default
	// 240 s buffer).
	ss.buf.SetResume(min(buffer.DefaultResume, bufMax-ss.v))
	// The session clock only moves forward, so one trace cursor serves the
	// whole session: each download resumes the segment walk where the last
	// one finished instead of re-searching the trace.
	ss.link.Bind(cfg.Trace)
	ss.traced = cfg.Trace != nil

	if ss.res == nil {
		ss.res = &Result{}
	}
	ss.res.reset(ss.alg.Name(), ss.s.LadderKbps())
	if hint := chunkCapacity(ss.s, ss.v, cfg.WatchLimit); cap(ss.res.rateIdx) < hint {
		ss.res.rateIdx = make([]uint8, 0, hint)
	}

	ss.k = 0
	ss.now = 0
	ss.prevIdx = -1
	ss.lastTP = 0
	ss.lastDl = 0
	ss.lastBytes = 0
	ss.seeks = cfg.Seeks
	ss.justSought = false
	ss.finished = false

	ss.obs = cfg.Observer
	ss.stallBase = 0
	ss.lastReservoir = -1
	ss.reporter = nil
	if ss.obs != nil {
		ss.reporter, _ = ss.alg.(abr.ReservoirReporter)
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.SessionStart, Chunk: -1, RateIndex: -1,
			PrevRateIndex: -1, Label: ss.res.Algorithm,
		})
	}

	ss.inj = cfg.Injector
	if ss.inj != nil {
		ss.rp = cfg.Retry
	}
	return nil
}

// Done reports whether the session has finished (or failed).
func (ss *Session) Done() bool { return ss.finished }

// Result returns the session's outcome. It is complete once the session
// is Done; the Session retains ownership and the next Start overwrites it.
func (ss *Session) Result() *Result { return ss.res }

// Now returns the session clock: the waits and download times accounted so
// far. It stands still between Request and Deliver.
func (ss *Session) Now() time.Duration { return ss.now }

// Buffer returns the playback buffer's occupancy at the session clock.
func (ss *Session) Buffer() time.Duration { return ss.buf.Level() }

// faultAdvance advances the session clock through a failed attempt or
// backoff: the buffer keeps draining, and a drain-to-empty is a real
// rebuffer with the same telemetry as one during a download.
func (ss *Session) faultAdvance(d time.Duration, chunk int) {
	if d <= 0 {
		return
	}
	preLevel, preStall, preRebuf := ss.buf.Level(), ss.buf.StallTime(), ss.buf.Rebuffers()
	ss.buf.Advance(d)
	ss.now += d
	if ss.obs != nil && ss.buf.Rebuffers() > preRebuf {
		ss.stallBase = preStall
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.RebufferStart, At: ss.now - d + preLevel,
			Chunk: chunk, RateIndex: -1, PrevRateIndex: -1,
		})
	}
}

// Request is the next chunk fetch a Session asks its driver to perform.
type Request struct {
	Chunk     int   // title chunk index
	RateIndex int   // session-ladder index to fetch it at
	Bytes     int64 // the chunk's size at that rate
	// Wait is the ON-OFF pause before the request goes out. It is already
	// on the session clock and drained from the buffer; the driver only
	// has to let that much of its own time pass first.
	Wait time.Duration
}

// Step advances the session by one chunk over the configured trace — one
// iteration of the engine loop in virtual time. It returns done == true
// once the session has played out (Result is then complete), and a non-nil
// error on engine failure, after which the session is terminal.
func (ss *Session) Step() (bool, error) {
	if !ss.traced {
		ss.finished = true
		return true, errors.New("player: nil trace")
	}
	req, done := ss.Request()
	if done {
		return true, nil
	}
	if ss.inj != nil {
		req.RateIndex, req.Bytes = ss.faultLoop(req.Chunk, req.RateIndex, req.Bytes)
	}
	dl, ok := ss.link.DownloadTime(ss.now, req.Bytes)
	if !ok {
		// Permanent outage. A link dead from the first chunk is an
		// error; later, playback drains what is buffered and freezes.
		if req.Chunk == 0 {
			ss.finished = true
			return true, ErrNoProgress
		}
		ss.Abandon(req)
		return true, nil
	}
	return ss.Deliver(req, req.Bytes, dl)
}

// Request opens one iteration of the loop: it executes a due seek, stops
// the session once the buffer holds everything the viewer will watch
// (done == true; Result is then complete), accounts the ON-OFF wait for
// buffer space, and asks the algorithm for the next rate. The driver lets
// req.Wait pass, moves the bytes, and closes the iteration with Deliver or
// Abandon.
func (ss *Session) Request() (req Request, done bool) {
	if ss.finished {
		return Request{}, true
	}
	k := ss.k
	// Execute a pending seek once enough video has been delivered.
	if len(ss.seeks) > 0 && ss.buf.Played() >= ss.seeks[0].AfterPlayed {
		target := ss.seeks[0].ToChunk
		ss.seeks = ss.seeks[1:]
		if target >= 0 && target < ss.n {
			ss.buf.Flush()
			if sa, ok := ss.alg.(abr.SeekAware); ok {
				sa.Seeked()
			}
			ss.res.Seeks = append(ss.res.Seeks, SeekRecord{At: ss.now, ToChunk: target})
			k = target
			ss.justSought = true
			if ss.obs != nil {
				ss.obs.OnEvent(telemetry.Event{
					Kind: telemetry.Seek, At: ss.now, Chunk: target,
					RateIndex: -1, PrevRateIndex: -1, Played: ss.buf.Played(),
				})
			}
		}
	}
	// Stop requesting once the buffer already holds everything the
	// viewer will watch — unless a seek is still pending, which will
	// discard that buffer.
	if len(ss.seeks) == 0 && ss.watch > 0 && ss.buf.Played()+ss.buf.Level() >= ss.watch {
		ss.playOut()
		return Request{}, true
	}

	// ON-OFF: wait for space before the next request.
	var wait time.Duration
	if !ss.buf.HasSpaceFor(ss.v) {
		wait = ss.buf.TimeUntilSpaceFor(ss.v)
		ss.buf.Advance(wait)
		ss.now += wait
	}

	st := abr.State{
		Now:            ss.now,
		Buffer:         ss.buf.Level(),
		BufferMax:      ss.bufMax,
		PrevIndex:      ss.prevIdx,
		NextChunk:      k,
		LastThroughput: ss.lastTP,
		LastDownload:   ss.lastDl,
		LastChunkBytes: ss.lastBytes,
	}
	idx := ss.ladder.Clamp(ss.alg.Next(st, ss.s))
	bytes := ss.s.ChunkSize(idx, k)
	if ss.obs != nil {
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.BufferSample, At: ss.now, Chunk: k,
			RateIndex: -1, PrevRateIndex: -1,
			Buffer: ss.buf.Level(), Played: ss.buf.Played(),
		})
		if ss.reporter != nil {
			if r, p, ok := ss.reporter.LastReservoir(); ok && r != ss.lastReservoir {
				ss.lastReservoir = r
				ss.obs.OnEvent(telemetry.Event{
					Kind: telemetry.ReservoirUpdate, At: ss.now, Chunk: k,
					RateIndex: -1, PrevRateIndex: -1,
					Reservoir: r, Protection: p, Buffer: ss.buf.Level(),
				})
			}
		}
		if ss.prevIdx >= 0 && idx != ss.prevIdx {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.RateSwitch, At: ss.now, Chunk: k,
				RateIndex: idx, PrevRateIndex: ss.prevIdx,
				Rate: ss.ladder[idx], Buffer: ss.buf.Level(),
			})
		}
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.ChunkRequest, At: ss.now, Chunk: k,
			RateIndex: idx, PrevRateIndex: -1,
			Rate: ss.ladder[idx], Bytes: bytes, Buffer: ss.buf.Level(),
		})
	}
	return Request{Chunk: k, RateIndex: idx, Bytes: bytes, Wait: wait}, false
}

// Abandon closes an iteration whose chunk can never arrive — the trace
// ended in a permanent outage, or an HTTP fetch ran out of attempts.
// Playback drains whatever is buffered and freezes forever: the session is
// marked Incomplete, the freeze counts as a final rebuffer that never
// ends, and the session finishes.
func (ss *Session) Abandon(req Request) {
	ss.res.Incomplete = true
	ss.res.Rebuffers++
	if ss.obs != nil {
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.RebufferStart, At: ss.now + ss.buf.Level(),
			Chunk: req.Chunk, RateIndex: -1, PrevRateIndex: -1,
			Label: "outage",
		})
	}
	ss.playOut()
}

// Deliver closes an iteration whose chunk arrived: n bytes in dl of the
// driver's time, measured from the moment req.Wait had passed. The buffer
// drains over the download — a drain-to-empty is a rebuffer — and gains the
// chunk, and the chunk is recorded. It returns done == true when that was
// the title's last chunk (the session has then finished), and a non-nil
// error on engine failure, after which the session is terminal.
func (ss *Session) Deliver(req Request, n int64, dl time.Duration) (bool, error) {
	k, idx := req.Chunk, req.RateIndex
	var preLevel, preStall time.Duration
	var preRebuf int
	if ss.obs != nil {
		preLevel, preStall, preRebuf = ss.buf.Level(), ss.buf.StallTime(), ss.buf.Rebuffers()
	}
	ss.buf.Advance(dl)
	ss.now += dl
	if ss.obs != nil && ss.buf.Rebuffers() > preRebuf {
		// The stall began the instant the buffer drained mid-download.
		ss.stallBase = preStall
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.RebufferStart, At: ss.now - dl + preLevel,
			Chunk: k, RateIndex: -1, PrevRateIndex: -1,
		})
	}
	if k == 0 {
		ss.res.JoinDelay = ss.now
	}
	if ss.justSought {
		ss.res.Seeks[len(ss.res.Seeks)-1].JoinDelay = dl
		ss.justSought = false
	}
	stalled := ss.buf.Started() && !ss.buf.Playing()
	// Overflow is impossible here because of the ON-OFF wait; an
	// error would indicate an engine bug, so surface it loudly.
	if err := ss.buf.AddChunk(ss.v); err != nil {
		ss.finished = true
		return true, err
	}

	if ss.prevIdx >= 0 && idx != ss.prevIdx {
		ss.res.Switches++
	}
	ss.lastTP = units.Throughput(n, dl)
	ss.lastDl = dl
	ss.lastBytes = n
	// The rate record, with the boundary counters standing in for starts.
	start := ss.now - dl
	if start < time.Minute {
		ss.res.startupChunks++
	}
	if start < 2*time.Minute {
		ss.res.steadySkip++
	}
	ss.res.rateIdx = append(ss.res.rateIdx, uint8(idx))
	ss.prevIdx = idx
	if ss.obs != nil {
		if stalled && ss.buf.Playing() {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.RebufferEnd, At: ss.now, Chunk: k,
				RateIndex: -1, PrevRateIndex: -1,
				Duration: ss.buf.StallTime() - ss.stallBase, Buffer: ss.buf.Level(),
			})
		}
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.ChunkComplete, At: ss.now, Chunk: k,
			RateIndex: idx, PrevRateIndex: -1,
			Rate: ss.ladder[idx], Bytes: n, Duration: dl,
			Throughput: ss.lastTP, Buffer: ss.buf.Level(), Played: ss.buf.Played(),
		})
	}

	ss.k = k + 1
	if ss.k >= ss.n {
		ss.playOut()
		return true, nil
	}
	return false, nil
}

// faultLoop is the resilience loop: each attempt pays any active latency
// spike, may fail to an injected fault (costing its virtual delay plus a
// deterministic backoff), and after retryBudget failures at the chosen rate
// the session degrades to the lowest rung with a shrunken request rather
// than aborting. The loop always terminates: every failed attempt advances the
// clock by at least the backoff, so a finite episode is always outlived.
func (ss *Session) faultLoop(k, idx int, bytes int64) (int, int64) {
	attempt, budgetUsed := 0, 0
	degraded := false
	for {
		ss.faultAdvance(ss.inj.RequestLatency(ss.now), k)
		label, cost, failed := ss.inj.ChunkFault(ss.now, k, attempt)
		if !failed {
			return idx, bytes
		}
		ss.res.Faults++
		if ss.obs != nil {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.FaultInject, At: ss.now, Chunk: k,
				RateIndex: idx, PrevRateIndex: -1,
				Duration: cost, Label: label,
			})
		}
		attempt++
		budgetUsed++
		backoff := faults.Backoff(backoffBase, backoffCap, uint64(ss.rp.Seed), k, attempt)
		ss.faultAdvance(cost+backoff, k)
		ss.res.Retries++
		if ss.obs != nil {
			ss.obs.OnEvent(telemetry.Event{
				Kind: telemetry.ChunkRetry, At: ss.now, Chunk: k,
				RateIndex: idx, PrevRateIndex: -1, Duration: backoff,
			})
		}
		if budgetUsed >= retryBudget && !degraded && idx > 0 {
			degraded = true
			budgetUsed = 0
			ss.res.Degradations++
			prevReq := idx
			idx = 0
			bytes = ss.s.ChunkSize(0, k)
			if ss.obs != nil {
				ss.obs.OnEvent(telemetry.Event{
					Kind: telemetry.Degrade, At: ss.now, Chunk: k,
					RateIndex: 0, PrevRateIndex: prevReq,
					Rate: ss.ladder[0], Bytes: bytes, Buffer: ss.buf.Level(),
				})
				ss.obs.OnEvent(telemetry.Event{
					Kind: telemetry.ChunkRequest, At: ss.now, Chunk: k,
					RateIndex: 0, PrevRateIndex: -1,
					Rate: ss.ladder[0], Bytes: bytes, Buffer: ss.buf.Level(),
				})
			}
		}
	}
}

// playOut ends a session that has no further download coming — the watch
// limit is buffered, the title is over, or the chunk was abandoned: the
// viewer watches the tail of the buffer (up to the watch limit), which for
// an incomplete session is the video still seen before the permanent
// freeze. The tail is accounted on the session clock, never slept through.
func (ss *Session) playOut() {
	ss.endStall()
	remaining := ss.buf.Level()
	if ss.watch > 0 {
		if left := ss.watch - ss.buf.Played(); left < remaining {
			remaining = left
		}
	}
	if remaining > 0 {
		ss.buf.Advance(remaining)
		ss.now += remaining
	}
	ss.Finish()
}

// endStall ends a pending stall now rather than at the resume threshold,
// which a session that downloads nothing more would never reach.
func (ss *Session) endStall() {
	if ss.obs != nil && !ss.res.Incomplete && ss.buf.Started() && !ss.buf.Playing() {
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.RebufferEnd, At: ss.now, Chunk: -1,
			RateIndex: -1, PrevRateIndex: -1,
			Duration: ss.buf.StallTime() - ss.stallBase, Buffer: ss.buf.Level(),
		})
	}
	ss.buf.Resume()
}

// Finish stops the session at the current session clock and completes the
// Result: the viewer stops watching now, so End is that clock and what is
// still buffered is not played. A session that ends on its own has played
// its tail out first; a driver calls Finish to stop one early (a simulation
// horizon). On a finished session it does nothing.
func (ss *Session) Finish() {
	if ss.finished {
		return
	}
	ss.endStall()
	res := ss.res
	res.Played = ss.buf.Played()
	res.Rebuffers += ss.buf.Rebuffers()
	res.StallTime += ss.buf.StallTime()
	res.End = ss.now
	if ss.obs != nil {
		ss.obs.OnEvent(telemetry.Event{
			Kind: telemetry.SessionEnd, At: res.End, Chunk: res.ChunkCount(),
			RateIndex: -1, PrevRateIndex: -1,
			Duration: res.StallTime, Played: res.Played, Label: res.Algorithm,
		})
	}
	ss.finished = true
}
