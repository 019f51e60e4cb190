package collect

import (
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

func TestShipperSpillsWhileCollectorDown(t *testing.T) {
	c := NewCollector(CollectorConfig{})
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
		cfg.Queue = QueueConfig{MemFrames: 2, SpillDir: t.TempDir()}
		cfg.Retry = RetryPolicy{MaxAttempts: 1 << 20, Base: time.Millisecond, Cap: 4 * time.Millisecond}
	})
	// Emit 30 events, re-offering any the non-blocking hot path refuses
	// while the framer recycles batch buffers (a tight loop outruns the
	// small buffer pool by design; a player emits at session pace).
	for i := 0; i < 30; i++ {
		for {
			before := s.Stats().Events
			s.OnEvent(testEvent(i))
			if s.Stats().Events > before {
				break
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	// With the collector down the sender blocks retrying the head frame;
	// the backlog overflows memory onto disk instead of dropping.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Queue.Spilled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no spill while collector down: %+v", s.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	up.Store(true)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	// Recovery drains the spill completely: every accepted event arrives.
	if cs := c.Stats(); cs.Events != 30 {
		t.Fatalf("collector got %d events, want 30", cs.Events)
	}
	if ss := s.Stats(); ss.FramesDropped != 0 {
		t.Fatalf("shipper dropped frames during spill: %+v", ss)
	}
	s.Close()
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
