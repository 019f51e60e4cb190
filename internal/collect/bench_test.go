package collect

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"bba/internal/telemetry"
)

// eventsPerBenchFrame is the batch size the ingest benchmarks assume;
// events/s = frames/s × eventsPerBenchFrame.
const eventsPerBenchFrame = 64

// BenchmarkCollectorIngest measures the collector's frame admission path —
// decode, checksum, dedup, event accounting — on pre-batched event frames.
// The end-to-end rate over loopback HTTP is the repo benchmark's
// fleet-ingest workload (ingest_events_per_s); this benchmark isolates the
// in-process cost.
func BenchmarkCollectorIngest(b *testing.B) {
	c := NewCollector(CollectorConfig{})
	payload := eventsPayload(eventsPerBenchFrame)
	buf := make([]byte, 0, EncodedLen(5, len(payload)))
	b.SetBytes(int64(EncodedLen(5, len(payload))))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendFrame(buf[:0], Frame{Run: "bench", Session: 1, Seq: uint64(i), Kind: PayloadEvents, Payload: payload})
		if err := c.Ingest(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*eventsPerBenchFrame/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkShipperOnEvent measures the player-visible hot path on accepted
// events: the append, and one frame encode per 64 events. Between windows
// of shipWindow frames the clock stops while the sender catches up, so the
// queue always has room; a drop of any kind fails the benchmark rather than
// timing the drop path.
func BenchmarkShipperOnEvent(b *testing.B) {
	const batch, shipWindow = 64, 128
	collector := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(collector.Handler())
	defer srv.Close()
	s, err := NewShipper(ShipperConfig{
		Addr: srv.URL, Run: "bench", Session: 1,
		BatchEvents: batch, FlushInterval: -1,
		Queue: QueueConfig{MemFrames: shipWindow},
		Retry: RetryPolicy{MaxAttempts: 4, Base: time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ev := telemetry.Event{
		Kind: telemetry.BufferSample, Session: "d0.w0.s0.bench", Chunk: 1,
		RateIndex: 2, PrevRateIndex: -1, Buffer: 12 * time.Second, Label: "BBA-0",
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i > 0 && i%(batch*shipWindow) == 0 {
			b.StopTimer()
			if err := s.Flush(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
		}
		s.OnEvent(ev)
	}
	b.StopTimer()
	ss := s.Stats()
	if ss.EventsDropped != 0 || ss.FramesDropped != 0 {
		b.Fatalf("the benchmark dropped data: %+v", ss)
	}
	b.ReportMetric(float64(ss.Events)/float64(b.N), "accepted/op")
}
