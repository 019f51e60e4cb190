package player

import (
	"bytes"
	"context"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/media"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

func telemetryStream(t *testing.T, chunks int, seed int64) abr.Stream {
	t.Helper()
	video, err := media.NewVBR(media.VBRConfig{
		Title:     "telemetry",
		Ladder:    media.DefaultLadder(),
		NumChunks: chunks,
	}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return abr.NewStream(video, 0)
}

// rebufferConfig is a session guaranteed to rebuffer: capacity drops below
// the lowest ladder rate mid-session.
func rebufferConfig(t *testing.T, obs telemetry.Observer) Config {
	t.Helper()
	return Config{
		Algorithm: abr.NewBBA2(),
		Stream:    telemetryStream(t, 120, 7),
		Trace:     trace.Step(4*units.Mbps, 150*units.Kbps, time.Minute, 2*time.Hour),
		Observer:  obs,
	}
}

func TestJournalByteIdenticalAcrossRuns(t *testing.T) {
	var a, b bytes.Buffer
	for _, buf := range []*bytes.Buffer{&a, &b} {
		j := telemetry.NewJournal(buf)
		if _, err := Run(rebufferConfig(t, j)); err != nil {
			t.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if a.Len() == 0 {
		t.Fatal("journal is empty")
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("same seed produced different journals")
	}
}

func TestObserverDoesNotPerturbResult(t *testing.T) {
	plain, err := Run(rebufferConfig(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(rebufferConfig(t, telemetry.NewRing(1<<14)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Error("attaching an observer changed the session result")
	}
}

func TestEventOrderingAndRebufferBracketing(t *testing.T) {
	ring := telemetry.NewRing(1 << 14)
	res, err := Run(rebufferConfig(t, ring))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuffers == 0 {
		t.Fatal("scenario did not rebuffer; test is vacuous")
	}
	evs := ring.Events()
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events; enlarge capacity", ring.Dropped())
	}
	CheckEventGrammar(t, evs, res)
	if countKind(evs, telemetry.BufferSample) == 0 {
		t.Error("no buffer samples emitted")
	}
	// BBA-2 computes a dynamic reservoir, so updates must appear.
	if countKind(evs, telemetry.ReservoirUpdate) == 0 {
		t.Error("no reservoir updates emitted for BBA-2")
	}
}

func TestSeekEventEmitted(t *testing.T) {
	ring := telemetry.NewRing(1 << 14)
	cfg := Config{
		Algorithm: abr.NewBBA2(),
		Stream:    telemetryStream(t, 200, 3),
		Trace:     trace.Constant(4*units.Mbps, 2*time.Hour),
		Seeks:     []Seek{{AfterPlayed: 30 * time.Second, ToChunk: 150}},
		Observer:  ring,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeks) != 1 {
		t.Fatalf("seeks executed = %d, want 1", len(res.Seeks))
	}
	if n := countKind(ring.Events(), telemetry.Seek); n != 1 {
		t.Errorf("seek events = %d, want 1", n)
	}
}

func TestRunContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{
		Algorithm: abr.NewBBA2(),
		Stream:    telemetryStream(t, 100, 1),
		Trace:     trace.Constant(4*units.Mbps, time.Hour),
	}
	if _, err := RunContext(ctx, cfg); err != context.Canceled {
		t.Errorf("cancelled run returned %v, want context.Canceled", err)
	}
	// A background context changes nothing.
	if _, err := RunContext(context.Background(), cfg); err != nil {
		t.Errorf("background-context run failed: %v", err)
	}
}

func countKind(evs []telemetry.Event, k telemetry.Kind) int {
	n := 0
	for _, e := range evs {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// TestSmallBufferSessionsEnd: a playback buffer only a chunk or two deep
// leaves the default 8 s resume threshold out of reach (the ON-OFF wait
// stops adding above bufMax-V), so Start clamps it. Without the clamp the
// first stall never ends and the next chunk overflows the buffer.
func TestSmallBufferSessionsEnd(t *testing.T) {
	s := telemetryStream(t, 30, 5)
	v := s.ChunkDuration()
	for _, c := range []struct {
		name   string
		bufMax time.Duration
	}{
		{"1xV", v}, {"1.5xV", v * 3 / 2}, {"2xV", 2 * v}, {"3xV", 3 * v},
	} {
		t.Run(c.name, func(t *testing.T) {
			capture := &telemetry.Capture{}
			res, err := Run(Config{
				Algorithm: abr.NewBBA2(),
				Stream:    s,
				Trace:     trace.Step(5*units.Mbps, 100*units.Kbps, 10*time.Second, time.Hour),
				BufferMax: c.bufMax,
				Observer:  capture,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Played <= 0 || res.ChunkCount() != s.NumChunks() {
				t.Errorf("played %v over %d chunks, want the whole title", res.Played, res.ChunkCount())
			}
			if res.Rebuffers == 0 {
				t.Error("a 100 kb/s link did not rebuffer; test is vacuous")
			}
			CheckEventGrammar(t, capture.Events, res)
		})
	}
}
