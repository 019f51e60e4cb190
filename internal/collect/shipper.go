package collect

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bba/internal/telemetry"
)

// RetryPolicy caps the shipper's per-frame retry loop: exponential backoff
// from Base to Cap with seeded jitter, up to MaxAttempts tries.
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

// backoff returns the jittered delay before attempt n (0-based).
func (r RetryPolicy) backoff(n int, rng *rand.Rand) time.Duration {
	d := r.Base << uint(n)
	if d <= 0 || d > r.Cap {
		d = r.Cap
	}
	// Jitter uniformly over [d/2, d): desynchronizes a fleet of shippers
	// hammering a recovering collector.
	return d/2 + time.Duration(rng.Int63n(int64(d/2)+1))
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
	// FlushInterval seals partial event batches on a timer (default
	// 500ms; 0 keeps the default, negative disables the timer).
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

// QueueConfig bounds the frame queue between the framer and the sender.
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

// ShipperStats is a snapshot of shipper activity. EventsDropped and
// FramesDropped are the explicit loss account of the non-blocking hot
// path: when the pipeline has no capacity, events are counted out, never
// blocked on.
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

// numBatchBuffers is the event-batch buffer pool size; when all buffers
// are in flight the hot path drops instead of blocking or allocating.
const numBatchBuffers = 4

// Shipper is the client half of the pipeline. Its OnEvent implements
// telemetry.Observer without blocking and — once its batch buffer has
// grown to steady state — without allocating: events append to a pooled
// buffer; full batches hand off to a framer goroutine that encodes them
// into the bounded frame queue; one sender goroutine drains the queue in
// order, with capped jittered retry, settling each frame — acknowledged or
// dropped — before it sends the next. That order is what lets the
// collector keep one watermark per stream.
type Shipper struct {
	cfg   ShipperConfig
	trans *httpTransport

	mu            sync.Mutex // guards cur, curEvents and the event counters
	cur           []byte
	curEvents     int
	events        int64
	eventsDropped int64

	free chan []byte
	full chan sealedBatch

	// frames is the frame queue. The framer is its one writer and Close
	// closes it only after the framer has stopped, so no frame is ever
	// pushed into a closed queue.
	frames  chan []byte
	nextSeq uint64 // framer-owned, as is scratch
	scratch []byte

	sealedPending atomic.Int64 // batches handed to the framer, not yet queued
	pending       atomic.Int64 // frames queued, not yet shipped or dropped

	pushed        atomic.Int64
	popped        atomic.Int64
	queueDropped  atomic.Int64
	framesDropped atomic.Int64
	shipped       atomic.Int64
	sendErrors    atomic.Int64
	retries       atomic.Int64

	stopFlusher chan struct{}
	stopFramer  chan struct{}
	flushing    sync.WaitGroup
	framing     sync.WaitGroup
	sending     sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

type sealedBatch struct {
	buf    []byte
	events int
}

// ErrBadAddr reports a ShipperConfig.Addr that is not an http(s) URL.
var ErrBadAddr = errors.New("collect: collector address must start with http:// or https://")

// NewShipper validates the config and starts the pipeline goroutines.
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
		cfg:         cfg,
		trans:       &httpTransport{url: strings.TrimSuffix(cfg.Addr, "/") + "/ingest", client: client},
		free:        make(chan []byte, numBatchBuffers),
		full:        make(chan sealedBatch, numBatchBuffers),
		frames:      make(chan []byte, cfg.Queue.MemFrames),
		stopFlusher: make(chan struct{}),
		stopFramer:  make(chan struct{}),
	}
	for i := 0; i < numBatchBuffers; i++ {
		s.free <- make([]byte, 0, 64<<10)
	}
	s.framing.Add(1)
	go s.framer()
	s.sending.Add(1)
	go s.sender()
	if cfg.FlushInterval > 0 {
		s.flushing.Add(1)
		go s.flusher()
	}
	return s, nil
}

// OnEvent implements telemetry.Observer: append the event to the current
// batch, sealing when full. It never blocks — with no buffer free the
// event is dropped and counted.
func (s *Shipper) OnEvent(e telemetry.Event) {
	s.mu.Lock()
	if s.cur == nil {
		select {
		case b := <-s.free:
			s.cur = b[:0]
		default:
			s.eventsDropped++
			s.mu.Unlock()
			return
		}
	}
	s.cur = telemetry.AppendJSONL(s.cur, e)
	s.curEvents++
	s.events++
	if s.curEvents >= s.cfg.BatchEvents || len(s.cur) >= batchBytesCap {
		s.sealLocked()
	}
	s.mu.Unlock()
}

// sealLocked hands the current batch to the framer. Caller holds mu.
func (s *Shipper) sealLocked() {
	if s.curEvents == 0 {
		return
	}
	s.sealedPending.Add(1)
	select {
	case s.full <- sealedBatch{buf: s.cur, events: s.curEvents}:
	default:
		// Framer backlogged; recycle the buffer and count the loss.
		s.sealedPending.Add(-1)
		s.eventsDropped += int64(s.curEvents)
		s.free <- s.cur
	}
	s.cur = nil
	s.curEvents = 0
}

// Seal closes the current partial batch so it ships without waiting for
// BatchEvents to fill.
func (s *Shipper) Seal() {
	s.mu.Lock()
	s.sealLocked()
	s.mu.Unlock()
}

// framer encodes sealed event batches into frames and queues them.
func (s *Shipper) framer() {
	defer s.framing.Done()
	for {
		select {
		case b := <-s.full:
			s.frameBatch(b)
		case <-s.stopFramer:
			// Drain anything sealed before the stop.
			for {
				select {
				case b := <-s.full:
					s.frameBatch(b)
				default:
					return
				}
			}
		}
	}
}

// frameBatch queues one sealed batch as a frame and recycles its buffer.
func (s *Shipper) frameBatch(b sealedBatch) {
	s.enqueueFrame(b.buf)
	s.free <- b.buf
	s.sealedPending.Add(-1)
}

// flusher seals partial batches on a timer so low-rate event streams still
// ship promptly.
func (s *Shipper) flusher() {
	defer s.flushing.Done()
	t := time.NewTicker(s.cfg.FlushInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.Seal()
		case <-s.stopFlusher:
			return
		}
	}
}

// enqueueFrame assigns the next sequence number and queues a copy of one
// event frame, or drops it, counted, when the queue is full. Sequence
// numbers are consumed only by accepted frames: a dropped frame leaves no
// gap in the stream the collector sees.
func (s *Shipper) enqueueFrame(payload []byte) {
	s.scratch = AppendFrame(s.scratch[:0], Frame{
		Run:     s.cfg.Run,
		Session: s.cfg.Session,
		Seq:     s.nextSeq,
		Kind:    PayloadEvents,
		Payload: payload,
	})
	select {
	case s.frames <- append([]byte(nil), s.scratch...):
		s.nextSeq++
		s.pushed.Add(1)
		s.pending.Add(1)
	default:
		s.queueDropped.Add(1)
		s.framesDropped.Add(1)
	}
}

// Flush seals the current batch and blocks until every queued frame has
// been shipped (acknowledged) or dropped, or the context expires.
func (s *Shipper) Flush(ctx context.Context) error {
	s.Seal()
	t := time.NewTicker(2 * time.Millisecond)
	defer t.Stop()
	for s.sealedPending.Load() != 0 || s.pending.Load() != 0 {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-t.C:
		}
	}
	return nil
}

// Close stops the pipeline in order: the flush timer, a flush with a
// generous deadline, the framer once it has queued every sealed batch, then
// the queue, which the sender drains before it exits. It releases the
// transport and returns the flush's error. Close is idempotent; repeat
// calls return the first call's result.
func (s *Shipper) Close() error {
	s.closeOnce.Do(func() {
		close(s.stopFlusher)
		s.flushing.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		s.closeErr = s.Flush(ctx)
		cancel()
		close(s.stopFramer)
		s.framing.Wait()
		close(s.frames)
		s.sending.Wait()
		s.trans.close()
	})
	return s.closeErr
}

// Stats returns a snapshot of the shipper counters.
func (s *Shipper) Stats() ShipperStats {
	s.mu.Lock()
	events, eventsDropped := s.events, s.eventsDropped
	s.mu.Unlock()
	return ShipperStats{
		Events:        events,
		EventsDropped: eventsDropped,
		FramesShipped: s.shipped.Load(),
		FramesDropped: s.framesDropped.Load(),
		SendErrors:    s.sendErrors.Load(),
		Retries:       s.retries.Load(),
		Queue: QueueStats{
			Pushed:  s.pushed.Load(),
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
	rng := rand.New(rand.NewSource(s.cfg.Retry.Seed))
	for frame := range s.frames {
		s.popped.Add(1)
		s.shipFrame(frame, rng)
		s.pending.Add(-1)
	}
}

// shipFrame pushes one frame through the transport. Exhausted retries drop
// the frame, and the drop is counted.
func (s *Shipper) shipFrame(frame []byte, rng *rand.Rand) {
	for attempt := 0; attempt < s.cfg.Retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			s.retries.Add(1)
			time.Sleep(s.cfg.Retry.backoff(attempt-1, rng))
		}
		err := s.trans.ship(frame)
		if err == nil {
			s.shipped.Add(1)
			return
		}
		s.sendErrors.Add(1)
		if errors.Is(err, errPermanent) {
			break
		}
	}
	s.framesDropped.Add(1)
}

// errPermanent marks transport errors that retrying cannot fix (the
// collector rejected the frame as invalid).
var errPermanent = errors.New("collect: permanent send failure")

// httpTransport POSTs frames to /ingest; 2xx acknowledges, 4xx is a
// permanent rejection, anything else (including transport errors) is
// retryable.
type httpTransport struct {
	url    string
	client *http.Client
}

func (t *httpTransport) ship(frame []byte) error {
	resp, err := t.client.Post(t.url, "application/octet-stream", bytes.NewReader(frame))
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

func (t *httpTransport) close() { t.client.CloseIdleConnections() }
