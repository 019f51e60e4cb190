package netem

import (
	"bytes"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"bba/internal/trace"
	"bba/internal/units"
)

// fakeClock lets shaper tests run instantly: sleeping advances time.
type fakeClock struct {
	mu     sync.Mutex
	t      time.Time
	acc    time.Duration
	sleeps int
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(0, 0)} }

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) sleep(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
	c.acc += d
	c.sleeps++
}

func TestShaperDeliversTraceRate(t *testing.T) {
	clock := newFakeClock()
	// 1 MB/s (8 Mb/s).
	s := newShaperClock(trace.Constant(8*units.Mbps, time.Hour), clock.now, clock.sleep)
	// Consume 2 MB: should take ≈2 seconds of (fake) time.
	for i := 0; i < 128; i++ {
		s.Take(16 * 1024)
	}
	elapsed := clock.now().Sub(time.Unix(0, 0))
	want := time.Duration(float64(128*16*1024) / 1e6 * float64(time.Second))
	if elapsed < want*9/10 || elapsed > want*11/10 {
		t.Errorf("2MB over 1MB/s took %v of link time, want ≈%v", elapsed, want)
	}
}

func TestShaperFollowsRateChange(t *testing.T) {
	clock := newFakeClock()
	tr := trace.MustNew([]trace.Segment{
		{Duration: time.Second, Rate: 8 * units.Mbps}, // 1 MB in 1s
		{Duration: time.Hour, Rate: 800 * units.Kbps}, // then 100 kB/s
	})
	s := newShaperClock(tr, clock.now, clock.sleep)
	// 1 MB fits in the fast first second.
	s.Take(1_000_000)
	t1 := clock.now().Sub(time.Unix(0, 0))
	if t1 > 1100*time.Millisecond {
		t.Errorf("first MB took %v, want ≈1s", t1)
	}
	// The next 100 kB at 100 kB/s takes ≈1s more.
	s.Take(100_000)
	t2 := clock.now().Sub(time.Unix(0, 0))
	if d := t2 - t1; d < 800*time.Millisecond || d > 1300*time.Millisecond {
		t.Errorf("post-drop 100kB took %v, want ≈1s", d)
	}
}

// TestShaperBlackoutSegment pins Take's behavior across a zero-rate
// segment: a transfer issued as the link goes dark parks in bounded polls
// (no busy-wait, no division by the zero rate) and completes one segment
// later, as soon as restored capacity has delivered its bytes.
func TestShaperBlackoutSegment(t *testing.T) {
	clock := newFakeClock()
	tr := trace.MustNew([]trace.Segment{
		{Duration: time.Second, Rate: 8 * units.Mbps}, // 1 MB/s
		{Duration: 10 * time.Second, Rate: 0},         // blackout
		{Duration: time.Hour, Rate: 8 * units.Mbps},
	})
	s := newShaperClock(tr, clock.now, clock.sleep)

	// Drain the first segment so the next request lands in the dark.
	s.Take(1_000_000)
	clock.mu.Lock()
	clock.sleeps = 0
	clock.mu.Unlock()

	// 500 kB requested mid-blackout: 10s of darkness, then 0.5s of
	// delivery at 1 MB/s once the link returns.
	waited := s.Take(500_000)
	if waited < 10*time.Second || waited > 11*time.Second+500*time.Millisecond {
		t.Errorf("blackout Take waited %v, want ≈10.5s", waited)
	}
	clock.mu.Lock()
	sleeps := clock.sleeps
	clock.mu.Unlock()
	// The dark stretch is covered by 20ms bounded polls (≈500 of them),
	// not a busy spin of sub-millisecond naps and not one blind oversleep.
	if sleeps < 50 || sleeps > 1200 {
		t.Errorf("blackout Take slept %d times, want bounded polling (≈525)", sleeps)
	}
	if r := s.Rate(); r != 8*units.Mbps {
		t.Errorf("post-blackout rate %v, want 8Mbps", r)
	}
}

func TestShaperZeroAndNegative(t *testing.T) {
	s := NewShaper(trace.Constant(units.Mbps, time.Hour))
	if d := s.Take(0); d != 0 {
		t.Errorf("Take(0) waited %v", d)
	}
	if d := s.Take(-5); d != 0 {
		t.Errorf("Take(-5) waited %v", d)
	}
}

func TestShaperRate(t *testing.T) {
	s := NewShaper(trace.Constant(3*units.Mbps, time.Hour))
	if got := s.Rate(); got != 3*units.Mbps {
		t.Errorf("Rate before start = %v", got)
	}
}

func TestShapedConnThroughput(t *testing.T) {
	// Real sockets on loopback, shaped to 4 Mb/s: transferring 500 kB
	// must take roughly a second.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	const payload = 500_000
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := bytes.Repeat([]byte("x"), payload)
		c.Write(buf)
	}()

	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw, NewShaper(trace.Constant(4*units.Mbps, time.Hour)))

	start := time.Now()
	n, err := io.Copy(io.Discard, conn)
	if err != nil {
		t.Fatal(err)
	}
	if n != payload {
		t.Fatalf("read %d bytes, want %d", n, payload)
	}
	elapsed := time.Since(start)
	want := 1 * time.Second // 500kB at 500kB/s
	if elapsed < want*7/10 || elapsed > want*15/10 {
		t.Errorf("shaped transfer took %v, want ≈%v", elapsed, want)
	}
}

// TestConnWithoutRTTDoesNotDelay: a shaped Conn adds no round trip of its
// own, so a small exchange over a fast link completes at loopback speed.
func TestConnWithoutRTTDoesNotDelay(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, 16)
		n, _ := c.Read(buf)
		c.Write(buf[:n])
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	conn := NewConn(raw, NewShaper(trace.Constant(100*units.Mbps, time.Hour)))
	start := time.Now()
	conn.Write([]byte("ping"))
	conn.Read(make([]byte, 16))
	if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
		t.Errorf("unshaped exchange took %v", elapsed)
	}
}
