package collect

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"bba/internal/telemetry"
)

func testEvent(i int) telemetry.Event {
	return telemetry.Event{
		Kind: telemetry.BufferSample, Session: "d0.w0.s0.test", Chunk: i,
		RateIndex: 2, PrevRateIndex: -1, Buffer: 12 * time.Second,
		Played: time.Duration(i) * 4 * time.Second, Label: "BBA-0",
	}
}

func newTestShipper(t *testing.T, addr string, mut func(*ShipperConfig)) *Shipper {
	t.Helper()
	cfg := ShipperConfig{
		Addr: addr, Run: "ship-test", Session: 1,
		BatchEvents: 2, FlushInterval: -1,
		Retry: RetryPolicy{MaxAttempts: 10, Base: time.Millisecond, Cap: 4 * time.Millisecond, Seed: 3},
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewShipper(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShipperBatchesAndShips(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	s := newTestShipper(t, srv.URL, nil)
	for i := 0; i < 5; i++ {
		s.OnEvent(testEvent(i))
	}
	// Three frames over loopback ship in milliseconds (tens under -race):
	// the 10 s deadline is the margin, not a measurement — only a sender
	// that never acks outlasts it.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	cs := c.Stats()
	// 5 events at BatchEvents=2: two full frames plus the partial the
	// flush sealed.
	if cs.Events != 5 || cs.Frames["events"] != 3 {
		t.Fatalf("collector stats %+v", cs)
	}
	ss := s.Stats()
	if ss.Events != 5 || ss.EventsDropped != 0 || ss.FramesShipped != 3 || ss.FramesDropped != 0 {
		t.Fatalf("shipper stats %+v", ss)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestShipperRetriesUntilAck(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	inner := c.Handler()
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Two of every three ingest attempts fail before reaching the
		// collector — injected loss the retry loop must ride out.
		if r.URL.Path == "/ingest" && n.Add(1)%3 != 0 {
			http.Error(w, "injected", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	s := newTestShipper(t, srv.URL, nil)
	for i := 0; i < 4; i++ {
		s.OnEvent(testEvent(i))
	}
	// Each frame meets two failures, each backing off at most Cap = 4 ms,
	// so the flush takes milliseconds: the 20 s deadline is the margin, not
	// a measurement — only a retry loop that never acks outlasts it.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if cs := c.Stats(); cs.Events != 4 {
		t.Fatalf("collector stats %+v", cs)
	}
	if ss := s.Stats(); ss.Retries == 0 || ss.FramesDropped != 0 {
		t.Fatalf("shipper stats %+v, want retries and no drops", ss)
	}
	s.Close()
}

func TestShipperPermanentRejection(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "never", http.StatusBadRequest)
	}))
	defer srv.Close()

	s := newTestShipper(t, srv.URL, nil)
	s.OnEvent(testEvent(0))
	s.OnEvent(testEvent(1))
	// One attempt, no retry, in milliseconds: the 10 s deadline is the
	// margin, not a measurement.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush: %v", err)
	}
	ss := s.Stats()
	// A 4xx is not retried: one attempt, explicit drop.
	if ss.FramesDropped != 1 || ss.Retries != 0 || ss.SendErrors != 1 {
		t.Fatalf("shipper stats %+v", ss)
	}
	s.Close()
}

// offer hands e to s, re-offering while the non-blocking hot path refuses
// it: a tight loop outruns the small batch-buffer pool by design, where a
// player emits at session pace.
func offer(s *Shipper, e telemetry.Event) {
	for {
		before := s.Stats().Events
		s.OnEvent(e)
		if s.Stats().Events > before {
			return
		}
		time.Sleep(100 * time.Microsecond) // paces the re-offers; decides no verdict
	}
}

// waitFor polls cond until it holds, failing the test after 10 s. Every
// condition it waits on holds within milliseconds (tens under -race): the
// 10 s is the margin that tells a stuck shipper from a slow machine, not a
// measurement. The 1 ms sleep only paces the polls and decides no verdict.
func waitFor(t *testing.T, s *Shipper, what string, cond func(ShipperStats) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for ss := s.Stats(); !cond(ss); ss = s.Stats() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: never happened: %+v", what, ss)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShipperDropsBeyondQueueBound: while the collector is down the sender
// holds one frame in retry and the queue holds MemFrames more; every later
// frame is dropped and counted, without spending a sequence number, and
// once the collector is back exactly the accepted events arrive, in order.
func TestShipperDropsBeyondQueueBound(t *testing.T) {
	var archived bytes.Buffer
	c := NewCollector(CollectorConfig{Archive: newBufArchiver(&archived)})
	inner := c.Handler()
	var up atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	s := newTestShipper(t, srv.URL, func(cfg *ShipperConfig) {
		cfg.BatchEvents = 1
		cfg.Queue = QueueConfig{MemFrames: 2}
		cfg.Retry = RetryPolicy{MaxAttempts: 1 << 20, Base: time.Millisecond, Cap: 4 * time.Millisecond}
	})
	defer s.Close()
	const events, bound = 30, 2
	offer(s, testEvent(0))
	waitFor(t, s, "the sender retrying frame 0", func(ss ShipperStats) bool { return ss.Queue.Popped == 1 && ss.SendErrors > 0 })
	for i := 1; i < events; i++ {
		offer(s, testEvent(i))
	}
	waitFor(t, s, "every frame queued or dropped", func(ss ShipperStats) bool { return ss.Queue.Pushed+ss.Queue.Dropped == events })
	ss := s.Stats()
	if want := int64(events - 1 - bound); ss.Queue.Pushed != 1+bound || ss.Queue.Dropped != want || ss.FramesDropped != want || ss.Queue.Depth != bound {
		t.Fatalf("shipper stats %+v, want %d frames accepted and %d dropped", ss, 1+bound, want)
	}

	up.Store(true)
	// Three frames ship within one capped 4 ms backoff of the collector's
	// return: the 20 s deadline is the margin, not a measurement.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	cs := c.Stats() // the collector's lock orders the archive's writes before this read
	if cs.FramesDup != 0 || cs.Events != 1+bound {
		t.Fatalf("collector stats %+v, want %d events and no duplicates", cs, 1+bound)
	}
	var want bytes.Buffer
	for i := 0; i <= bound; i++ {
		want.Write(telemetry.AppendJSONL(nil, testEvent(i)))
	}
	if !bytes.Equal(archived.Bytes(), want.Bytes()) {
		t.Fatalf("collector holds\n%s\nwant the first %d events in order:\n%s", archived.Bytes(), 1+bound, want.Bytes())
	}
	if ss := s.Stats(); ss.Events != events || ss.FramesShipped != 1+bound || ss.FramesDropped != events-1-bound {
		t.Fatalf("shipper stats after recovery %+v", ss)
	}
}

func TestShipperOnEventZeroAlloc(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// A batch size larger than the test's event count keeps the framer and
	// senders idle: the measurement isolates the player-visible hot path.
	s := newTestShipper(t, srv.URL, func(cfg *ShipperConfig) {
		cfg.BatchEvents = 1 << 20
	})
	defer s.Close()
	ev := testEvent(7)
	if allocs := testing.AllocsPerRun(100, func() { s.OnEvent(ev) }); allocs != 0 {
		t.Fatalf("OnEvent allocates %.1f per call on the hot path, want 0", allocs)
	}
	if ss := s.Stats(); ss.EventsDropped != 0 {
		t.Fatalf("events dropped with queue capacity available: %+v", ss)
	}
}

func TestShipperBadAddr(t *testing.T) {
	// Only the acknowledged HTTP lane exists: every other scheme, the
	// retired udp:// included, is refused with the typed error.
	for _, addr := range []string{"gopher://x", "udp://127.0.0.1:9", "127.0.0.1:9", ""} {
		if _, err := NewShipper(ShipperConfig{Addr: addr, Run: "r"}); !errors.Is(err, ErrBadAddr) {
			t.Errorf("NewShipper(Addr: %q) = %v, want ErrBadAddr", addr, err)
		}
	}
	if _, err := NewShipper(ShipperConfig{Addr: "http://127.0.0.1:9", Run: ""}); err == nil {
		t.Fatalf("empty run id accepted")
	}
}
