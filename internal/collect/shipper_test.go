package collect

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
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
	defer up.Store(true) // a failure below must not leave Close retrying against a down collector
	const events, bound = 30, 2
	s.OnEvent(testEvent(0))
	waitFor(t, s, "the sender retrying frame 0", func(ss ShipperStats) bool { return ss.Queue.Popped == 1 && ss.SendErrors > 0 })
	for i := 1; i < events; i++ {
		s.OnEvent(testEvent(i))
	}
	ss := s.Stats() // OnEvent seals in place: every frame is already queued or dropped
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

// TestShipperBurstLosesNothing: a tight loop of events into a shipper whose
// queue has room for every frame loses nothing — the queue is the only
// bound — and the collector admits every event, in order. A running
// shipper is one goroutine, its sender.
func TestShipperBurstLosesNothing(t *testing.T) {
	const n, batch = 20000, 64
	var archived bytes.Buffer
	c := NewCollector(CollectorConfig{Archive: newBufArchiver(&archived)})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	before := runtime.NumGoroutine()
	s := newTestShipper(t, srv.URL, func(cfg *ShipperConfig) {
		cfg.BatchEvents = batch
		cfg.Queue = QueueConfig{MemFrames: (n + batch - 1) / batch}
	})
	if g := runtime.NumGoroutine() - before; g > 1 {
		t.Errorf("a running shipper has %d goroutines, want one: the sender", g)
	}
	for i := 0; i < n; i++ {
		s.OnEvent(testEvent(i))
	}
	if ss := s.Stats(); ss.Events != n || ss.EventsDropped != 0 || ss.FramesDropped != 0 || ss.Queue.Dropped != 0 {
		t.Fatalf("shipper stats %+v, want all %d events accepted and nothing dropped", ss, n)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cs := c.Stats() // the collector's lock orders the archive's writes before this read
	if ss := s.Stats(); ss.FramesShipped != (n+batch-1)/batch || ss.FramesDropped != 0 || cs.Events != n || cs.FramesDup != 0 {
		t.Fatalf("shipper %+v, collector %+v", ss, cs)
	}
	var want bytes.Buffer
	for i := 0; i < n; i++ {
		want.Write(telemetry.AppendJSONL(nil, testEvent(i)))
	}
	if !bytes.Equal(archived.Bytes(), want.Bytes()) {
		t.Fatal("the collector holds other events than the burst, or out of order")
	}
}

// TestShipperEventAfterClose: a flush timer that fires as Close runs, or
// after it, and an event offered after Close never touch the closed queue:
// no panic, the late event counted in EventsDropped, and what was offered
// before Close shipped.
func TestShipperEventAfterClose(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	const rounds = 20
	for round := 0; round < rounds; round++ {
		s := newTestShipper(t, srv.URL, func(cfg *ShipperConfig) {
			cfg.Session = uint64(round + 1)
			cfg.BatchEvents = 1 << 10
			// Armed by the first event, the timer fires before, during or
			// after Close depending on the round; every order must hold.
			cfg.FlushInterval = time.Duration(1+round*round) * 5 * time.Microsecond
		})
		s.OnEvent(testEvent(0))
		if err := s.Close(); err != nil {
			t.Fatalf("round %d: close: %v", round, err)
		}
		s.Seal() // what a timer firing after Close does
		s.OnEvent(testEvent(1))
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err := s.Flush(ctx)
		cancel()
		if err != nil {
			t.Fatalf("round %d: flush after close: %v", round, err)
		}
		if ss := s.Stats(); ss.Events != 1 || ss.EventsDropped != 1 || ss.FramesShipped != 1 || ss.FramesDropped != 0 || ss.Queue.Pushed != 1 {
			t.Fatalf("round %d: stats %+v, want one event shipped and the late one dropped", round, ss)
		}
	}
	if cs := c.Stats(); cs.Events != rounds {
		t.Fatalf("collector holds %d events, want %d", cs.Events, rounds)
	}
}

// TestShipperSealZeroAlloc: with each settled frame's buffer back on the
// free list, as the sender returns it, sealing allocates nothing either.
func TestShipperSealZeroAlloc(t *testing.T) {
	s := bareShipper(1)
	s.cfg.BatchEvents = 4
	ev := testEvent(7)
	step := func() {
		s.OnEvent(ev)
		select {
		case f := <-s.frames: // settled, as the sender settles it
			s.mu.Lock()
			s.recycleLocked(f.buf)
			s.mu.Unlock()
		default:
		}
	}
	for i := 0; i < 64; i++ {
		step() // grows the batch and frame buffers to their steady size
	}
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("OnEvent with sealing allocates %.2f per call, want 0", allocs)
	}
	if ss := s.Stats(); ss.FramesDropped != 0 || ss.Queue.Pushed == 0 {
		t.Fatalf("stats %+v, want frames sealed and none dropped", ss)
	}
}

func TestShipperOnEventZeroAlloc(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// A batch size larger than the test's event count keeps the seal path
	// and the sender idle: the measurement isolates the append.
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
