package collect

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strconv"
	"testing"

	"bba/internal/archive"
	"bba/internal/telemetry"
)

// seqCollector is a collector over a real archive store, each batch one
// canonical journal line whose session label names its frame's seq.
type seqCollector struct {
	*Collector
	t     testing.TB
	dir   string
	store *archive.Store
}

func newSeqCollector(t testing.TB) *seqCollector {
	c := &seqCollector{t: t, dir: t.TempDir()}
	c.restart()
	t.Cleanup(func() { c.store.Close() })
	return c
}

// restart closes the store, if open, and reopens it under a new collector,
// as a restarted bbacollect -store does.
func (c *seqCollector) restart() {
	if c.store != nil {
		if err := c.store.Close(); err != nil {
			c.t.Fatal(err)
		}
	}
	st, err := archive.Open(archive.Config{Dir: c.dir})
	if err != nil {
		c.t.Fatal(err)
	}
	c.store, c.Collector = st, NewCollector(CollectorConfig{Archive: st})
}

// ingest offers the frame of stream ("r", 1) at seq.
func (c *seqCollector) ingest(seq uint64) error {
	payload := telemetry.AppendJSONL(nil, telemetry.Event{Kind: telemetry.BufferSample, Session: strconv.FormatUint(seq, 10), RateIndex: -1, PrevRateIndex: -1})
	return c.Ingest(AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: seq, Kind: PayloadEvents, Payload: payload}))
}

// archived returns the seqs of the archived batches, in archive order.
func (c *seqCollector) archived(t testing.TB) []uint64 {
	t.Helper()
	seqs := []uint64{}
	if len(c.store.Runs()) == 0 {
		return seqs
	}
	var journal bytes.Buffer
	if err := c.store.Export("r", &journal); err != nil {
		t.Fatal(err)
	}
	for _, line := range bytes.SplitAfter(journal.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		e, ok := telemetry.ParseJSONL(line)
		seq, err := strconv.ParseUint(e.Session, 10, 64)
		if !ok || err != nil {
			t.Fatalf("archive line %q: %v", line, err)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// seqRange returns lo, lo+1, …, hi-1.
func seqRange(lo, hi uint64) []uint64 {
	var s []uint64
	for seq := lo; seq < hi; seq++ {
		s = append(s, seq)
	}
	return s
}

// TestIngestOrder holds the collector to its admission contract: a stream
// is one watermark, a frame is archived iff its seq is at or above it, and
// everything below — replays and late copies — is ACKed as a duplicate and
// never archived. The top seq, which would wrap the watermark, is refused
// permanently without opening the stream.
func TestIngestOrder(t *testing.T) {
	const top = math.MaxUint64
	cat := func(parts ...[]uint64) []uint64 {
		var s []uint64
		for _, p := range parts {
			s = append(s, p...)
		}
		return s
	}
	for _, tc := range []struct {
		name           string
		arrivals       []uint64
		archived       []uint64
		dup, bad, open int64
	}{
		{"in order", seqRange(0, 10), seqRange(0, 10), 0, 0, 1},
		{"replays", cat(seqRange(0, 4), seqRange(0, 4), []uint64{3, 2, 1, 0}), seqRange(0, 4), 8, 0, 1},
		// Seq 5 is never sent (the shipper gave up on it); when a copy
		// arrives after 6–9, the stream is past it.
		{"gap then a late copy", cat(seqRange(0, 5), seqRange(6, 10), []uint64{5}), cat(seqRange(0, 5), seqRange(6, 10)), 1, 0, 1},
		// At most once, never twice: 2 moves the watermark past 1 and 0.
		{"reordered", []uint64{2, 1, 0}, []uint64{2}, 2, 0, 1},
		{"top seq refused", []uint64{0, top, 1, top}, []uint64{0, 1}, 0, 2, 1},
		{"top seq opens no stream", []uint64{top}, []uint64{}, 0, 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := newSeqCollector(t)
			for _, seq := range tc.arrivals {
				err := c.ingest(seq)
				if seq == top {
					if !errors.Is(err, ErrBadFrame) || retryable(err) {
						t.Fatalf("seq %d: err = %v, want a permanent ErrBadFrame", seq, err)
					}
				} else if err != nil {
					t.Fatalf("seq %d: %v", seq, err)
				}
			}
			if got := c.archived(t); !reflect.DeepEqual(got, tc.archived) {
				t.Errorf("archived seqs %v, want %v", got, tc.archived)
			}
			s := c.Stats()
			if s.FramesDup != tc.dup || s.FramesBad != tc.bad || s.Streams != tc.open || s.Frames["events"] != int64(len(tc.archived)) || s.Events != int64(len(tc.archived)) {
				t.Errorf("stats %+v, want %d admitted, %d duplicates, %d bad, %d streams", s, len(tc.archived), tc.dup, tc.bad, tc.open)
			}
		})
	}
}

// TestIngestTopSeqWraparound is the repro of a crafted seq wrapping the
// admission state: a stream at seq 0 is sent the 4 097 seqs that end at
// 2^64−1, then seq 0 again. Had the top seq been admitted, the watermark
// would wrap past it to 0 and archive seq 0 a second time.
func TestIngestTopSeqWraparound(t *testing.T) {
	c := newSeqCollector(t)
	want := append([]uint64{0}, seqRange(math.MaxUint64-4096, math.MaxUint64)...)
	for _, seq := range append(want, math.MaxUint64, 0) {
		c.ingest(seq) // the stats below account for every answer
	}
	got := c.archived(t)
	if !reflect.DeepEqual(got, want) {
		seen := map[uint64]int{}
		for _, seq := range got {
			seen[seq]++
		}
		t.Fatalf("archived %d batches for %d distinct seqs (seq 0 %d times), want %d once each", len(got), len(seen), seen[0], len(want))
	}
	if s := c.Stats(); s.FramesDup != 1 || s.FramesBad != 1 {
		t.Fatalf("stats %+v: the replayed seq 0 is a duplicate, the top seq a bad frame", s)
	}
}
