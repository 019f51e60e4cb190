package collect

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/faults"
	"bba/internal/telemetry"
)

// RetryPolicy caps the shipper's per-frame retry loop: exponential backoff
// from Base to Cap with seeded jitter (faults.Backoff, keyed by the frame's
// seq and the attempt), up to MaxAttempts tries.
type RetryPolicy struct {
	// MaxAttempts bounds tries per frame (default 10).
	MaxAttempts int
	// Base is the first backoff delay (default 50ms).
	Base time.Duration
	// Cap bounds a single backoff delay (default 2s).
	Cap time.Duration
	// Seed drives the jitter.
	Seed int64
}

func (r *RetryPolicy) applyDefaults() {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 10
	}
	if r.Base <= 0 {
		r.Base = 50 * time.Millisecond
	}
	if r.Cap <= 0 {
		r.Cap = 2 * time.Second
	}
}

// ShipperConfig configures a Shipper.
type ShipperConfig struct {
	// Addr is the collector endpoint, "http://host:port" (or https):
	// frames are POSTed to its /ingest and retried until acknowledged.
	// Any other scheme is rejected with ErrBadAddr.
	Addr string
	// Run is the run id stamped on every frame (required, 1–255 bytes).
	Run string
	// Session distinguishes sender streams within a run; two processes
	// shipping one run must use different Session ids.
	Session uint64
	// BatchEvents seals an event frame after this many events
	// (default 64).
	BatchEvents int
	// FlushInterval seals a partial batch this long after its first event
	// (default 500ms; 0 keeps the default, negative disables the timer).
	FlushInterval time.Duration
	// Queue bounds the frame queue between batching and sending.
	Queue QueueConfig
	// Retry caps the per-frame retry loop; its Seed drives the one
	// sender's jitter.
	Retry RetryPolicy
	// HTTPClient overrides the HTTP client — the seam tests use to route
	// shipping through netem-shaped dials and a lossy, duplicating edge.
	HTTPClient *http.Client
}

// QueueConfig bounds the frame queue between sealing and sending.
type QueueConfig struct {
	// MemFrames is the queue's capacity in frames (default 256). A frame
	// sealed while the queue is full is dropped and counted: the newest
	// data loses, the backlog is kept.
	MemFrames int
}

// QueueStats counts frame-queue activity. Dropped counts the frames the
// full queue refused; they are in ShipperStats.FramesDropped too.
type QueueStats struct {
	Pushed  int64
	Popped  int64
	Dropped int64
	// Depth is the number of frames waiting for the sender.
	Depth int64
}

// ShipperStats is a snapshot of shipper activity. FramesDropped is the
// explicit loss account of the non-blocking hot path: a batch sealed while
// the queue is full is counted out, never blocked on, as is a frame the
// sender gave up on. EventsDropped counts the events offered after Close.
type ShipperStats struct {
	Events        int64
	EventsDropped int64
	FramesShipped int64
	FramesDropped int64
	SendErrors    int64
	Retries       int64
	Queue         QueueStats
}

// batchBytesCap seals a batch early so every frame stays well under
// MaxFrame.
const batchBytesCap = 56 << 10

// maxSpare bounds the free list of frame buffers.
const maxSpare = 4

// Shipper is the client half of the pipeline. Its OnEvent implements
// telemetry.Observer without blocking and — once its buffers have grown to
// steady state — without allocating: events append to the current batch; a
// full batch is framed in place, reusing an acknowledged frame's buffer, and
// pushed onto the bounded frame queue, or dropped and counted when the queue
// is full. The queue is the only bound on loss. One sender goroutine drains
// it in order, with capped jittered retry, settling each frame —
// acknowledged or dropped — before it sends the next. That order is what
// lets the collector keep one watermark per stream.
type Shipper struct {
	cfg    ShipperConfig
	url    string // the collector's /ingest
	client *http.Client
	timer  *time.Timer // seals a partial batch FlushInterval after its first event; nil when disabled

	mu            sync.Mutex // guards the fields below it, and every send on frames
	cur           []byte
	curEvents     int
	events        int64
	eventsDropped int64
	nextSeq       uint64   // spent only by frames the queue accepts: their count
	spare         [][]byte // acknowledged frames' buffers, for sealLocked to reuse
	closed        bool     // set, and frames closed, by Close

	frames  chan queuedFrame
	pending atomic.Int64 // frames queued, not yet shipped or dropped

	popped        atomic.Int64
	queueDropped  atomic.Int64
	framesDropped atomic.Int64
	shipped       atomic.Int64
	sendErrors    atomic.Int64
	retries       atomic.Int64

	sending   sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// queuedFrame is one encoded frame and its seq, which keys its retry jitter.
type queuedFrame struct {
	seq uint64
	buf []byte
}

// ErrBadAddr reports a ShipperConfig.Addr that is not an http(s) URL.
var ErrBadAddr = errors.New("collect: collector address must start with http:// or https://")

// NewShipper validates the config and starts the sender.
func NewShipper(cfg ShipperConfig) (*Shipper, error) {
	if len(cfg.Run) == 0 || len(cfg.Run) > 255 {
		return nil, fmt.Errorf("collect: run id length %d outside 1..255", len(cfg.Run))
	}
	if cfg.BatchEvents <= 0 {
		cfg.BatchEvents = 64
	}
	if cfg.FlushInterval == 0 {
		cfg.FlushInterval = 500 * time.Millisecond
	}
	if cfg.Queue.MemFrames <= 0 {
		cfg.Queue.MemFrames = 256
	}
	cfg.Retry.applyDefaults()
	if !strings.HasPrefix(cfg.Addr, "http://") && !strings.HasPrefix(cfg.Addr, "https://") {
		return nil, fmt.Errorf("%w, got %q", ErrBadAddr, cfg.Addr)
	}
	client := cfg.HTTPClient
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	s := &Shipper{
		cfg:    cfg,
		url:    strings.TrimSuffix(cfg.Addr, "/") + "/ingest",
		client: client,
		frames: make(chan queuedFrame, cfg.Queue.MemFrames),
	}
	if cfg.FlushInterval > 0 {
		s.timer = time.AfterFunc(cfg.FlushInterval, s.Seal)
	}
	s.sending.Add(1)
	go s.sender()
	return s, nil
}

// OnEvent implements telemetry.Observer: append the event to the current
// batch, sealing when full. It never blocks; after Close the event is
// dropped and counted.
func (s *Shipper) OnEvent(e telemetry.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		s.eventsDropped++
		return
	}
	s.cur = telemetry.AppendJSONL(s.cur, e)
	s.curEvents++
	s.events++
	if s.curEvents == 1 && s.timer != nil {
		s.timer.Reset(s.cfg.FlushInterval)
	}
	if s.curEvents >= s.cfg.BatchEvents || len(s.cur) >= batchBytesCap {
		s.sealLocked()
	}
}

// sealLocked frames the current batch and queues it without blocking, or
// drops it, counted, when the queue is full. The seq is spent only when the
// queue accepts the frame, so a drop leaves no gap in the stream the
// collector sees. The batch buffer is reused in place. Caller holds mu;
// after Close the batch is always empty (OnEvent refuses events), so a late
// flush timer never reaches the closed queue.
func (s *Shipper) sealLocked() {
	if s.curEvents == 0 {
		return
	}
	var buf []byte
	if n := len(s.spare); n > 0 {
		buf, s.spare = s.spare[n-1], s.spare[:n-1]
	} else {
		buf = make([]byte, 0, EncodedLen(len(s.cfg.Run), len(s.cur)))
	}
	buf = AppendFrame(buf, Frame{
		Run:     s.cfg.Run,
		Session: s.cfg.Session,
		Seq:     s.nextSeq,
		Kind:    PayloadEvents,
		Payload: s.cur,
	})
	s.pending.Add(1)
	select {
	case s.frames <- queuedFrame{seq: s.nextSeq, buf: buf}:
		s.nextSeq++
	default:
		s.pending.Add(-1)
		s.queueDropped.Add(1)
		s.framesDropped.Add(1)
		s.recycleLocked(buf)
	}
	s.cur = s.cur[:0]
	s.curEvents = 0
}

// recycleLocked keeps a frame buffer no one reads any more for the next
// seal, up to maxSpare of them. Caller holds mu.
func (s *Shipper) recycleLocked(buf []byte) {
	if len(s.spare) < maxSpare {
		s.spare = append(s.spare, buf[:0])
	}
}

// Seal closes the current partial batch so it ships without waiting for
// BatchEvents to fill.
func (s *Shipper) Seal() {
	s.mu.Lock()
	s.sealLocked()
	s.mu.Unlock()
}

// Flush seals the current batch and blocks until every queued frame has
// been shipped (acknowledged) or dropped, or the context expires.
func (s *Shipper) Flush(ctx context.Context) error {
	s.Seal()
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for s.pending.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// Close seals the last batch, marks the shipper closed and closes the queue,
// all under mu, so no later OnEvent or flush timer can reach the queue; then
// it stops the timer. The sender drains the queue and exits; Close waits for
// it, reporting a drain that outlasts 30 s as its error, and releases the
// transport. Close is idempotent; repeat calls return the first call's
// result.
func (s *Shipper) Close() error {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.sealLocked()
		s.closed = true
		close(s.frames)
		s.mu.Unlock()
		if s.timer != nil {
			s.timer.Stop()
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.closeErr = s.Flush(ctx)
		cancel()
		s.sending.Wait()
		s.client.CloseIdleConnections()
	})
	return s.closeErr
}

// Stats returns a snapshot of the shipper counters.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	events, eventsDropped, pushed := s.events, s.eventsDropped, s.nextSeq
	s.mu.Unlock()
	return ShipperStats{
		Events:        events,
		EventsDropped: eventsDropped,
		FramesShipped: s.shipped.Load(),
		FramesDropped: s.framesDropped.Load(),
		SendErrors:    s.sendErrors.Load(),
		Retries:       s.retries.Load(),
		Queue: QueueStats{
			Pushed:  int64(pushed),
			Popped:  s.popped.Load(),
			Dropped: s.queueDropped.Load(),
			Depth:   int64(len(s.frames)),
		},
	}
}

// sender drains the queue in order, shipping each frame with capped
// jittered retry.
func (s *Shipper) sender() {
	defer s.sending.Done()
	for f := range s.frames {
		s.popped.Add(1)
		if s.shipFrame(f) {
			s.mu.Lock()
			s.recycleLocked(f.buf)
			s.mu.Unlock()
		}
		s.pending.Add(-1)
	}
}

// shipFrame pushes one frame through the transport. Exhausted retries drop
// the frame, and the drop is counted. It reports whether the frame's buffer
// may be reused: only when its first attempt was acknowledged. The
// collector's 204 comes after it has read the whole frame, and the HTTP
// transport hands over a bodiless response only once its write has
// finished; a failed attempt gives no such order — a response can beat the
// body's write, which may still be reading the buffer when a later attempt
// settles — so such a buffer is left to the garbage collector.
func (s *Shipper) shipFrame(f queuedFrame) (reusable bool) {
	r := s.cfg.Retry
	for attempt := 0; attempt < r.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			time.Sleep(faults.Backoff(r.Base, r.Cap, uint64(r.Seed), int(f.seq), attempt))
		}
		err := s.ship(f.buf)
		if err == nil {
			s.shipped.Add(1)
			return attempt == 0
		}
		s.sendErrors.Add(1)
		if errors.Is(err, errPermanent) {
			break
		}
	}
	s.framesDropped.Add(1)
	return false
}

// errPermanent marks transport errors that retrying cannot fix (the
// collector rejected the frame as invalid).
var errPermanent = errors.New("collect: permanent send failure")

// ship POSTs one frame to /ingest; 2xx acknowledges, 4xx is a permanent
// rejection, anything else (including transport errors) is retryable.
func (s *Shipper) ship(frame []byte) error {
	resp, err := s.client.Post(s.url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4<<10))
	resp.Body.Close()
	switch {
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return nil
	case resp.StatusCode >= 400 && resp.StatusCode < 500:
		return fmt.Errorf("%w: collector rejected frame: %s", errPermanent, resp.Status)
	default:
		return fmt.Errorf("collect: ship: %s", resp.Status)
	}
}
