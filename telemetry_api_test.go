package bba

import (
	"bytes"
	"context"
	"testing"
	"time"
)

// TestFacadeObserver covers the public telemetry surface: SessionConfig
// gains an Observer, and the re-exported sinks and event kinds are usable
// without importing internal packages.
func TestFacadeObserver(t *testing.T) {
	video, err := NewVBRTitle("facade", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := SessionConfig{
		Algorithm: NewBBA2(),
		Video:     video,
		Trace:     VariableTrace(3*Mbps, 5.6, 2*time.Hour, 4),
	}

	ring := NewRing(1 << 14)
	var counted int
	cfg.Observer = MultiObserver(ring, ObserverFunc(func(Event) { counted++ }))
	res, err := RunSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	evs := ring.Events()
	if len(evs) == 0 || counted != len(evs)+int(ring.Dropped()) {
		t.Fatalf("fan-out mismatch: ring=%d dropped=%d func=%d", len(evs), ring.Dropped(), counted)
	}
	if evs[0].Kind != EventSessionStart || evs[len(evs)-1].Kind != EventSessionEnd {
		t.Error("session events not bracketed by start/end")
	}
	if n := ring.CountKind(EventRebufferStart); n != res.Rebuffers {
		t.Errorf("rebuffer_start events = %d, Result.Rebuffers = %d", n, res.Rebuffers)
	}
	if ring.CountKind(EventChunkComplete) != res.ChunkCount() {
		t.Error("chunk_complete events disagree with Result.ChunkCount")
	}
}

// TestFacadeJournalDeterminism is the acceptance criterion at the facade:
// same seed ⇒ byte-identical JSONL journal.
func TestFacadeJournalDeterminism(t *testing.T) {
	journal := func() []byte {
		video, err := NewVBRTitle("det", 200, 9)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		j := NewJournal(&buf)
		_, err = RunSession(SessionConfig{
			Algorithm: NewBBA1(),
			Video:     video,
			Trace:     VariableTrace(2*Mbps, 5.6, time.Hour, 3),
			Observer:  j,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := journal(), journal()
	if len(a) == 0 {
		t.Fatal("journal is empty")
	}
	if !bytes.Equal(a, b) {
		t.Error("same-seed sessions produced different journals")
	}
}

func TestRunSessionContextCancel(t *testing.T) {
	video, err := NewVBRTitle("cancel", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = RunSessionContext(ctx, SessionConfig{
		Algorithm: NewBBA0(),
		Video:     video,
		Trace:     ConstantTrace(4*Mbps, time.Hour),
	})
	if err != context.Canceled {
		t.Errorf("cancelled session returned %v, want context.Canceled", err)
	}
}
