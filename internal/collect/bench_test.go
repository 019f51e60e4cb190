package collect

import (
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

// BenchmarkShipperOnEvent measures the player-visible hot path with queue
// capacity available: it must not allocate.
func BenchmarkShipperOnEvent(b *testing.B) {
	collector := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(collector.Handler())
	defer srv.Close()
	s, err := NewShipper(ShipperConfig{
		Addr: srv.URL, Run: "bench", Session: 1,
		BatchEvents: 64, FlushInterval: -1,
		Queue: QueueConfig{MemFrames: 1 << 16},
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
		s.OnEvent(ev)
	}
}
