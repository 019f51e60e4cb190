package dash

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bba/internal/media"
)

// benchVideo builds the standard benchmark title once per benchmark.
func benchVideo(b *testing.B) *media.Video {
	b.Helper()
	v, err := media.NewVBR(media.VBRConfig{
		Title:         "bench",
		Ladder:        media.DefaultLadder(),
		ChunkDuration: time.Second,
		NumChunks:     120,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	return v
}

// discardWriter is a ResponseWriter that throws the body away — the
// handler cost alone, no socket, no recorder buffer growth.
type discardWriter struct{ h http.Header }

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(int)             {}

// BenchmarkServeChunk measures the per-request cost of the chunk handler —
// the unit of work the load rig multiplies by thousands of concurrent
// clients. The repo benchmark tracks the same cost as dash.serve_chunk_ns
// (bash bench/run.sh trace).
func BenchmarkServeChunk(b *testing.B) {
	srv, err := NewServer(benchVideo(b))
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodGet, "/chunk/0/3", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var w discardWriter
		srv.ServeHTTP(&w, req)
	}
}
