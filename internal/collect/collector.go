package collect

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"bba/internal/archive"
	"bba/internal/obs"
	"bba/internal/telemetry"
)

// ErrArchive reports an event frame NACKed because the archive could not
// persist its batch. It is retryable in protocol terms (the shipper keeps
// the frame and retries), but the failure is sticky: once one write
// fails, the collector refuses every later event frame without attempting
// the write, so the archive stays a clean prefix of the admitted stream
// until an operator restarts the collector with a healthy archive. A batch
// refused as not canonical (telemetry.ErrNotCanonical) is a bad frame.
var ErrArchive = errors.New("collect: archive unavailable")

// CollectorConfig configures a Collector.
type CollectorConfig struct {
	// Archive admits every event frame and persists its batch, telemetry
	// journal JSONL in admission order; when nil, an in-memory
	// archive.Watermarks admits and nothing is persisted. Persistence gates
	// acknowledgement: a failed Admit NACKs the frame, never acknowledged
	// unpersisted. A batch refused as not canonical is the frame's fault: a
	// permanent ErrBadFrame (400) with its seq unspent. Any other failure is
	// sticky (see ErrArchive): subsequent event frames are refused outright,
	// /healthz degrades, and bba_collect_archive_errors_total counts them.
	Archive Archiver
}

// CollectorStats is a snapshot of collector activity.
type CollectorStats struct {
	// Frames counts admitted frames by kind name; FramesDup counts frames
	// below their stream's watermark, ACKed and discarded — the
	// at-least-once overhead, plus any late copy of a frame the shipper
	// gave up on.
	Frames      map[string]int64
	FramesDup   int64
	FramesBad   int64 // undecodable or invalid: permanently rejected
	FramesRetry int64 // NACKed retryable (archive unavailable)
	Events      int64 // events admitted across all event frames
	Streams     int64 // (run, session) streams the archive holds a watermark for
	// ArchiveErrors counts event frames NACKed because the archive could
	// not persist them: the first failed write plus every sticky refusal
	// after it.
	ArchiveErrors int64
}

// Collector is the server half of the pipeline: it ingests frames,
// verifies and dedups them, and persists each admitted event batch before
// acknowledging it.
//
// A shipper sends one stream in order (one sender, each frame settled —
// acknowledged or given up — before the next is sent), so a stream's
// admission state is one watermark, which the Archiver holds: next, the seq
// after the last admitted frame. A frame is fresh iff seq ≥ next; admitting
// it sets next = seq+1. Anything below the watermark is a replay of an
// admitted frame or a late copy of one the shipper already gave up on: both
// are ACKed, counted as duplicates and never archived, so delivery is
// at-most-once per seq and a stream's archived seqs strictly increase.
//
// Ingest is safe for concurrent use; all state lives behind one mutex,
// which loopback benchmarks show is nowhere near the bottleneck at the
// target ingest rate.
type Collector struct {
	cfg CollectorConfig

	mu    sync.Mutex
	stats CollectorStats
	// archiveErr is the sticky first archive failure; once set, event
	// frames are NACKed without touching the archive.
	archiveErr error
	subs       map[int]chan TailMsg
	nextSub    int

	// admitSeconds is the wall time of every Ingest so far, from the frame
	// in hand to the ACK decision — decode, dedup, the archive append that
	// gates the ACK and any compaction it runs. Its bounds: a frame is
	// admitted in tens of microseconds, one whose append seals a block waits
	// out the compaction, tens to hundreds of milliseconds.
	admitSeconds obs.Histogram
}

// NewCollector returns a Collector with the config's defaults applied.
func NewCollector(cfg CollectorConfig) *Collector {
	if cfg.Archive == nil {
		cfg.Archive = new(archive.Watermarks)
	}
	return &Collector{
		cfg:          cfg,
		stats:        CollectorStats{Frames: make(map[string]int64)},
		admitSeconds: obs.NewHistogram(0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.01, 0.05, 0.25, 1),
	}
}

// Ingest processes one encoded frame. A nil return acknowledges the frame
// (including recognized duplicates — re-acknowledging a duplicate is what
// stops retry loops). An error matching ErrArchive is a retryable NACK;
// anything else is a permanent rejection.
//
// Persistence and admission are one step, the Archiver's: an admitted
// (run, session, seq) is spent forever, so its seq is consumed only with
// its batch persisted — otherwise a retry of a failed frame would be
// discarded as a duplicate and its payload lost.
func (c *Collector) Ingest(b []byte) error {
	start := time.Now()
	f, _, err := DecodeFrame(b)
	c.mu.Lock()
	defer c.mu.Unlock()
	defer func() { c.admitSeconds.Observe(time.Since(start).Seconds()) }()
	if err != nil {
		c.stats.FramesBad++
		return err
	}
	return c.ingestFrameLocked(f)
}

// ingestFrameLocked admits one decoded frame. Caller holds mu.
func (c *Collector) ingestFrameLocked(f Frame) error {
	if f.Kind != PayloadEvents {
		c.stats.FramesBad++
		return fmt.Errorf("%w: kind %d", ErrBadFrame, f.Kind)
	}
	// Admitting seq sets the watermark to seq+1, which the top seq would
	// wrap to 0, reopening every seq of the stream. A shipper starts at 0
	// and never gets near it.
	if f.Seq == math.MaxUint64 {
		c.stats.FramesBad++
		return fmt.Errorf("%w: seq %d", ErrBadFrame, f.Seq)
	}

	// The archive lane is sticky-failed: refuse before any other work,
	// so the archive stays a clean prefix of the acknowledged stream.
	if c.archiveErr != nil {
		c.stats.ArchiveErrors++
		c.stats.FramesRetry++
		return fmt.Errorf("%w: %v", ErrArchive, c.archiveErr)
	}

	// The archive keeps no reference to the batch (see Archiver), so it
	// reads the caller's buffer in place.
	dup, err := c.cfg.Archive.Admit(f.Run, f.Session, f.Seq, f.Payload)
	switch {
	case errors.Is(err, telemetry.ErrNotCanonical):
		c.stats.FramesBad++
		return fmt.Errorf("%w: %v", ErrBadFrame, err)
	case err != nil:
		c.archiveErr = err
		c.stats.ArchiveErrors++
		c.stats.FramesRetry++
		return fmt.Errorf("%w: %v", ErrArchive, err)
	case dup:
		c.stats.FramesDup++
		return nil
	}
	c.stats.Events += int64(bytes.Count(f.Payload, []byte{'\n'}))
	c.publish(f.Run, f.Payload)
	c.stats.Frames[f.Kind.String()]++
	return nil
}

// Stats returns a snapshot of the collector counters.
func (c *Collector) Stats() CollectorStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	if a, ok := c.cfg.Archive.(interface{ Streams() int }); ok {
		s.Streams = int64(a.Streams())
	}
	s.Frames = make(map[string]int64, len(c.stats.Frames))
	for k, v := range c.stats.Frames {
		s.Frames[k] = v
	}
	return s
}

// ArchiveError returns the sticky archive failure, nil while healthy.
func (c *Collector) ArchiveError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.archiveErr
}

// TailMsg is one admitted event batch, as delivered to Subscribe
// channels: the run it belongs to and the journal JSONL payload. The
// payload is shared between subscribers — treat it as read-only.
type TailMsg struct {
	Run     string
	Payload []byte
}

// Subscribe registers a live tail of admitted event batches. Delivery is
// best-effort: a subscriber whose buffer (default 64) is full misses
// batches rather than stalling ingest. cancel unregisters and closes the
// channel; it is safe to call more than once.
func (c *Collector) Subscribe(buf int) (ch <-chan TailMsg, cancel func()) {
	if buf <= 0 {
		buf = 64
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextSub
	c.nextSub++
	sub := make(chan TailMsg, buf)
	if c.subs == nil {
		c.subs = make(map[int]chan TailMsg)
	}
	c.subs[id] = sub
	return sub, func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		if s, ok := c.subs[id]; ok {
			delete(c.subs, id)
			close(s)
		}
	}
}

// publish fans an admitted batch out to subscribers. The batch outlives
// this call in their channels, so it is copied out of the caller's buffer —
// once, shared — and only when someone is subscribed. Caller holds mu.
func (c *Collector) publish(run string, payload []byte) {
	if len(c.subs) == 0 {
		return
	}
	payload = bytes.Clone(payload)
	for _, sub := range c.subs {
		select {
		case sub <- TailMsg{Run: run, Payload: payload}:
		default: // slow subscriber: drop, never stall ingest
		}
	}
}

// retryable reports whether err is a NACK the shipper should retry.
func retryable(err error) bool { return errors.Is(err, ErrArchive) }

// Handler returns the collector's HTTP interface:
//
//	POST /ingest        one frame per request body; 204 acknowledges,
//	                    503 asks for retry, 400 rejects permanently
//	GET  /metrics       Prometheus text exposition
//	GET  /healthz       liveness JSON
func (c *Collector) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", c.handleIngest)
	mux.Handle("/metrics", obs.Handler(c.WriteMetrics))
	mux.HandleFunc("/healthz", c.handleHealthz)
	return mux
}

func (c *Collector) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, MaxFrame+1))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > MaxFrame {
		http.Error(w, "frame too large", http.StatusBadRequest)
		return
	}
	switch err := c.Ingest(body); {
	case err == nil:
		w.WriteHeader(http.StatusNoContent)
	case retryable(err):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

func (c *Collector) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s := c.Stats()
	fields := map[string]any{
		"streams": s.Streams,
		"events":  s.Events,
	}
	if err := c.ArchiveError(); err != nil {
		// A sticky archive failure means the collector is refusing event
		// frames: alive, but not healthy.
		fields["archive_error"] = err.Error()
		obs.WriteHealth(w, false, "degraded", fields)
		return
	}
	obs.WriteHealth(w, true, "ok", fields)
}

// WriteMetrics encodes a Stats snapshot through the shared exposition
// writer: what /metrics serves, exported so a daemon can follow it with its
// archive's families on the same endpoint.
func (c *Collector) WriteMetrics(w *obs.Writer) {
	s := c.Stats()
	w.CounterVec("bba_collect_frames_total", "Frames admitted, by payload kind.", "kind", s.Frames)
	counter := func(name, help string, v int64) { w.Counter(name, help, float64(v)) }
	counter("bba_collect_frames_duplicate_total", "Duplicate frames recognized and discarded.", s.FramesDup)
	counter("bba_collect_frames_bad_total", "Frames permanently rejected (decode, checksum or payload).", s.FramesBad)
	counter("bba_collect_frames_retry_total", "Frames NACKed for retry (an archive append failed, or its failure is sticky).", s.FramesRetry)
	counter("bba_collect_events_total", "Telemetry events admitted.", s.Events)
	counter("bba_collect_streams_total", "Distinct (run, session) sender streams the archive holds a watermark for.", s.Streams)
	counter("bba_collect_archive_errors_total", "Event frames NACKed because the archive could not persist them.", s.ArchiveErrors)
	c.mu.Lock()
	defer c.mu.Unlock()
	w.Histogram("bba_collect_admit_seconds", "Wall time from a frame received to its ACK decision, the archive append included.", &c.admitSeconds)
}
