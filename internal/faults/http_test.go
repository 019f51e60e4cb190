package faults

import (
	"testing"
	"time"
)

// fixedClock steps an HTTPInjector through schedule time without
// wall-clock reads.
type fixedClock struct{ at time.Time }

func (c *fixedClock) now() time.Time             { return c.at }
func (c *fixedClock) advance(d time.Duration)    { c.at = c.at.Add(d) }
func epoch() time.Time                           { return time.Unix(1_700_000_000, 0) }
func newFixedClock(at time.Duration) *fixedClock { return &fixedClock{at: epoch().Add(at)} }

func TestHTTPInjectorRequest(t *testing.T) {
	s := MustSchedule([]Fault{
		{Kind: LatencySpike, Start: 0, Duration: 10 * time.Second, Latency: time.Second},
		{Kind: ServerError, Start: 5 * time.Second, Duration: 5 * time.Second},
	})
	clock := newFixedClock(6 * time.Second)
	in := &HTTPInjector{Schedule: s, Seed: 3, Now: clock.now}
	in.Start(epoch())
	sawBoth := false
	for i := 0; i < 64 && !sawBoth; i++ {
		lat, kind, fault := in.Request()
		if lat != time.Second {
			t.Fatalf("latency %v, want the spike's 1s", lat)
		}
		if fault {
			if kind != ServerError {
				t.Fatalf("fault kind %v, want server_error", kind)
			}
			sawBoth = true
		}
	}
	if !sawBoth {
		t.Fatal("no server_error in 64 requests at p=0.9")
	}
	// Decisions replay identically for the same seed and sequence.
	rerun := &HTTPInjector{Schedule: s, Seed: 3, Now: clock.now}
	rerun.Start(epoch())
	a := &HTTPInjector{Schedule: s, Seed: 3, Now: clock.now}
	a.Start(epoch())
	for i := 0; i < 32; i++ {
		l1, k1, f1 := rerun.Request()
		l2, k2, f2 := a.Request()
		if l1 != l2 || k1 != k2 || f1 != f2 {
			t.Fatal("same seed and sequence disagreed")
		}
	}
	// Outside episodes: inert.
	clock.advance(20 * time.Second)
	if lat, _, fault := in.Request(); lat != 0 || fault {
		t.Error("injector fired outside every episode")
	}
	var nilInj *HTTPInjector
	if lat, _, fault := nilInj.Request(); lat != 0 || fault {
		t.Error("nil injector fired")
	}
}
