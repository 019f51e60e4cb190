package collect

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bba/internal/telemetry"
)

// bareShipper is a Shipper with only its frame queue: no goroutines, so a
// test seals batches with sealPayload and pops from frames itself.
func bareShipper(memFrames int) *Shipper {
	return &Shipper{cfg: ShipperConfig{Run: "queue", Session: 1}, frames: make(chan queuedFrame, memFrames)}
}

// sealPayload seals payload as one batch through the shipper's seal path.
func sealPayload(s *Shipper, payload string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cur = append(s.cur, payload...)
	s.curEvents = 1
	s.sealLocked()
}

// popFrame takes the next frame off the queue and decodes it; the seq the
// queue carries must be the frame's.
func popFrame(t *testing.T, s *Shipper) Frame {
	t.Helper()
	select {
	case q := <-s.frames:
		f, _, err := DecodeFrame(q.buf)
		if err != nil {
			t.Fatal(err)
		}
		if f.Seq != q.seq {
			t.Fatalf("queue carries seq %d for a frame of seq %d", q.seq, f.Seq)
		}
		return f
	default:
		t.Fatal("queue empty")
		return Frame{}
	}
}

func TestQueueFIFOMemory(t *testing.T) {
	s := bareShipper(8)
	for i := 0; i < 5; i++ {
		sealPayload(s, fmt.Sprintf("f%d\n", i))
	}
	if q := s.Stats().Queue; q.Pushed != 5 || q.Depth != 5 || q.Dropped != 0 {
		t.Fatalf("queue stats %+v", q)
	}
	for i := 0; i < 5; i++ {
		if f := popFrame(t, s); f.Seq != uint64(i) || string(f.Payload) != fmt.Sprintf("f%d\n", i) {
			t.Fatalf("pop %d: seq %d payload %q", i, f.Seq, f.Payload)
		}
	}
	if q := s.Stats().Queue; q.Depth != 0 {
		t.Fatalf("depth %d after drain", q.Depth)
	}
}

// TestQueueDropNewestDefault: a full queue refuses the newest frame and
// counts it; the refused frame spends no sequence number. The default
// bound is 256 frames.
func TestQueueDropNewestDefault(t *testing.T) {
	s := bareShipper(2)
	for _, p := range []string{"a\n", "b\n", "c\n"} {
		sealPayload(s, p)
	}
	ss := s.Stats()
	if ss.Queue.Pushed != 2 || ss.Queue.Dropped != 1 || ss.FramesDropped != 1 {
		t.Fatalf("stats %+v", ss)
	}
	if f := popFrame(t, s); f.Seq != 0 || string(f.Payload) != "a\n" {
		t.Fatalf("kept seq %d %q, want the oldest", f.Seq, f.Payload)
	}
	sealPayload(s, "d\n")
	for _, want := range []Frame{{Seq: 1, Payload: []byte("b\n")}, {Seq: 2, Payload: []byte("d\n")}} {
		if f := popFrame(t, s); f.Seq != want.Seq || string(f.Payload) != string(want.Payload) {
			t.Fatalf("popped seq %d %q, want seq %d %q", f.Seq, f.Payload, want.Seq, want.Payload)
		}
	}

	d, err := NewShipper(ShipperConfig{Addr: "http://127.0.0.1:9", Run: "queue", FlushInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if cap(d.frames) != 256 {
		t.Fatalf("default queue bound %d frames, want 256", cap(d.frames))
	}
}

// TestQueuePopBlocksUntilPush: a sender waiting on an empty queue ships a
// frame sealed long after it started waiting.
func TestQueuePopBlocksUntilPush(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	s := newTestShipper(t, srv.URL, nil)
	defer s.Close()
	// The sleep lets the sender park on the empty queue first. It only
	// shapes the interleaving and decides no verdict: the frame must ship
	// whichever goroutine runs first.
	time.Sleep(10 * time.Millisecond)
	s.OnEvent(testEvent(0))
	s.Seal()
	waitFor(t, s, "the late frame shipped", func(ss ShipperStats) bool { return ss.FramesShipped == 1 })
	if cs := c.Stats(); cs.Events != 1 {
		t.Fatalf("collector stats %+v", cs)
	}
}

// TestQueueCloseDrains: Close returns only after every frame sealed before
// it was shipped — including the flush timer's last partial batch — so the
// ledger balances with nothing left queued.
func TestQueueCloseDrains(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	inner := c.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Keeps frames queued when Close starts; it only shapes the
		// interleaving and decides no verdict.
		time.Sleep(200 * time.Microsecond)
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	var events int64
	for round := 0; round < 20; round++ {
		s := newTestShipper(t, srv.URL, func(cfg *ShipperConfig) {
			cfg.Session = uint64(round + 1)
			cfg.FlushInterval = 100 * time.Microsecond
		})
		for i := 0; i < 9; i++ {
			s.OnEvent(testEvent(i))
		}
		if err := s.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		ss := s.Stats()
		if ss.Events != 9 {
			t.Fatalf("round %d: %+v", round, ss)
		}
		if q := ss.Queue; q.Pushed != q.Popped || q.Depth != 0 || q.Dropped != 0 || ss.FramesShipped != q.Pushed || ss.FramesDropped != 0 {
			t.Fatalf("round %d: stats after Close %+v", round, ss)
		}
		events += ss.Events
		if cs := c.Stats(); cs.Events != events {
			t.Fatalf("round %d: collector holds %d events, the shippers sent %d", round, cs.Events, events)
		}
		if err := s.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	}
}

// TestQueueConcurrent: OnEvent seals and pushes while the sender pops; with
// one sender the collector admits every frame once, in sequence order.
func TestQueueConcurrent(t *testing.T) {
	const n = 500
	var archived bytes.Buffer
	c := NewCollector(CollectorConfig{Archive: newBufArchiver(&archived)})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	s := newTestShipper(t, srv.URL, func(cfg *ShipperConfig) {
		cfg.BatchEvents = 1
		cfg.Queue = QueueConfig{MemFrames: n} // room for every frame: a drop would be the pipeline's doing
	})
	var want bytes.Buffer
	for i := 0; i < n; i++ {
		s.OnEvent(testEvent(i))
		want.Write(telemetry.AppendJSONL(nil, testEvent(i)))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	cs := c.Stats() // the collector's lock orders the archive's writes before this read
	if ss := s.Stats(); ss.FramesShipped != n || ss.FramesDropped != 0 || cs.Events != n || cs.FramesDup != 0 {
		t.Fatalf("shipper %+v, collector %+v", ss, cs)
	}
	if !bytes.Equal(archived.Bytes(), want.Bytes()) {
		t.Fatal("the collector admitted the frames out of order")
	}
}
