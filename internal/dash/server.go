// Package dash is the HTTP streaming substrate: a chunk server and a
// streaming client that exercise the ABR algorithms over a real HTTP path —
// TCP connections, HTTP requests, measured per-chunk downloads — instead of
// the virtual-time simulator. It mirrors the production setup the paper
// describes: "the client requests chunks of video from the server", each
// chunk a separate HTTP object, with the player measuring "how fast chunks
// arrive to estimate capacity".
//
// The server publishes a JSON manifest (ladder, chunk duration and the full
// per-chunk size matrix, which BBA-1's reservoir and chunk map need), a
// standards-shaped MPEG-DASH MPD at /manifest.mpd for interop, and serves
// deterministic filler bytes for every (rate, chunk) pair. Fault injection —
// added latency and per-chunk failures — supports testing the client's
// error handling.
package dash

import (
	"encoding/json"
	"encoding/xml"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/telemetry"
	"bba/internal/units"
)

// Manifest is the JSON document describing a title.
type Manifest struct {
	Title           string  `json:"title"`
	ChunkDurationMS int64   `json:"chunkDurationMs"`
	LadderBps       []int64 `json:"ladderBps"`
	NumChunks       int     `json:"numChunks"`
	// SizesBytes is indexed [rateIndex][chunkIndex].
	SizesBytes [][]int64 `json:"sizesBytes"`
}

// ManifestFor builds the manifest describing v.
func ManifestFor(v *media.Video) Manifest {
	m := Manifest{
		Title:           v.Title,
		ChunkDurationMS: v.ChunkDuration.Milliseconds(),
		NumChunks:       v.NumChunks(),
	}
	for _, r := range v.Ladder {
		m.LadderBps = append(m.LadderBps, int64(r))
	}
	for ri := range v.Ladder {
		m.SizesBytes = append(m.SizesBytes, v.ChunkSizes(ri))
	}
	return m
}

// Video reconstructs the media.Video the manifest describes.
func (m Manifest) Video() (*media.Video, error) {
	ladder := make(media.Ladder, len(m.LadderBps))
	for i, bps := range m.LadderBps {
		ladder[i] = units.BitRate(bps)
	}
	return media.FromSizes(m.Title, ladder, time.Duration(m.ChunkDurationMS)*time.Millisecond, m.SizesBytes)
}

// Server serves one title over HTTP:
//
//	GET /manifest.json                 full-information manifest
//	GET /manifest.mpd                  MPEG-DASH MPD
//	GET /chunk/{rateIndex}/{chunkIndex}
//
// It implements http.Handler and is safe for concurrent use. Every
// manifest-shaped document (JSON, MPD) is rendered once at construction:
// the title is immutable, so re-rendering per request only burns CPU under
// load.
type Server struct {
	video    *media.Video
	manifest []byte
	mpd      []byte

	// Latency is added before each chunk response (first-byte delay).
	Latency time.Duration
	// FailChunk, when non-nil, makes matching chunk requests fail with
	// a 503 — fault injection for client retry tests.
	FailChunk func(rate, chunk int) bool
	// Injector, when non-nil, puts the server in fault-injecting mode:
	// chunk requests inside scheduled episodes suffer 503s, stalled
	// bodies, mid-download aborts and added first-byte latency, as the
	// injector decides.
	Injector *faults.HTTPInjector
	// Observer, when non-nil, receives server-side telemetry: a
	// ChunkRequest when a chunk request arrives and a ChunkComplete when
	// its body has been written (At is time since server start). Wire a
	// telemetry.Prom here to feed a /metrics endpoint.
	Observer telemetry.Observer

	start    time.Time
	requests atomic.Int64
}

// NewServer builds a Server for v.
func NewServer(v *media.Video) (*Server, error) {
	raw, err := json.Marshal(ManifestFor(v))
	if err != nil {
		return nil, err
	}
	mpd, err := xml.MarshalIndent(MPDFor(v), "", "  ")
	if err != nil {
		return nil, err
	}
	return &Server{
		video:    v,
		manifest: raw,
		mpd:      append([]byte(xml.Header), mpd...),
		start:    time.Now(),
	}, nil
}

// Requests returns the number of chunk requests served (including injected
// failures).
func (s *Server) Requests() int64 { return s.requests.Load() }

// Video returns the title the server serves.
func (s *Server) Video() *media.Video { return s.video }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/manifest.json":
		w.Header().Set("Content-Type", "application/json")
		w.Write(s.manifest)
	case r.URL.Path == "/manifest.mpd":
		w.Header().Set("Content-Type", "application/dash+xml")
		w.Write(s.mpd)
	case strings.HasPrefix(r.URL.Path, "/chunk/"):
		s.serveChunk(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (s *Server) serveChunk(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/chunk/"), "/")
	if len(parts) != 2 {
		http.Error(w, "want /chunk/{rate}/{index}", http.StatusBadRequest)
		return
	}
	rate, err1 := strconv.Atoi(parts[0])
	chunk, err2 := strconv.Atoi(parts[1])
	if err1 != nil || err2 != nil ||
		rate < 0 || rate >= len(s.video.Ladder) ||
		chunk < 0 || chunk >= s.video.NumChunks() {
		http.Error(w, "chunk out of range", http.StatusNotFound)
		return
	}
	if s.FailChunk != nil && s.FailChunk(rate, chunk) {
		http.Error(w, "injected failure", http.StatusServiceUnavailable)
		return
	}
	if s.Latency > 0 {
		time.Sleep(s.Latency)
	}
	size := s.video.ChunkSize(rate, chunk)
	if s.Injector != nil {
		latency, kind, fault := s.Injector.Request()
		if latency > 0 {
			time.Sleep(latency)
		}
		if fault {
			s.observeFault(kind, rate, chunk, size)
			switch kind {
			case faults.ServerError:
				http.Error(w, "injected failure", http.StatusServiceUnavailable)
				return
			case faults.StallBody, faults.ConnReset:
				// Deliver a partial body, then hang (slowloris) or tear the
				// connection down mid-download.
				w.Header().Set("Content-Type", "video/mp4")
				w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
				partial := size / 4
				if partial > 64<<10 {
					partial = 64 << 10
				}
				writeFiller(w, partial)
				if f, ok := w.(http.Flusher); ok {
					f.Flush()
				}
				if kind == faults.ConnReset {
					panic(http.ErrAbortHandler)
				}
				time.Sleep(s.Injector.Stall())
				return
			}
		}
	}
	if s.Observer != nil {
		s.Observer.OnEvent(telemetry.Event{
			Kind: telemetry.ChunkRequest, At: time.Since(s.start),
			Chunk: chunk, RateIndex: rate, PrevRateIndex: -1,
			Rate: s.video.Ladder[rate], Bytes: size,
		})
	}
	served := time.Now()
	w.Header().Set("Content-Type", "video/mp4")
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	writeFiller(w, size)
	if s.Observer != nil {
		s.Observer.OnEvent(telemetry.Event{
			Kind: telemetry.ChunkComplete, At: time.Since(s.start),
			Chunk: chunk, RateIndex: rate, PrevRateIndex: -1,
			Rate: s.video.Ladder[rate], Bytes: size,
			Duration: time.Since(served),
		})
	}
}

// observeFault reports an injected fault through the server's Observer.
func (s *Server) observeFault(kind faults.Kind, rate, chunk int, size int64) {
	if s.Observer == nil {
		return
	}
	s.Observer.OnEvent(telemetry.Event{
		Kind: telemetry.FaultInject, At: time.Since(s.start),
		Chunk: chunk, RateIndex: rate, PrevRateIndex: -1,
		Rate: s.video.Ladder[rate], Bytes: size, Label: kind.String(),
	})
}

// fillerBlock is the shared read-only source every chunk body is streamed
// from. Allocating and refilling a 32 KiB block per request was the other
// load-ramp bottleneck: at thousands of concurrent clients the per-request
// allocation dominated the handler and kept the GC busy. The block is
// written by exactly one goroutine (package init) and only read afterwards.
var fillerBlock = func() []byte {
	block := make([]byte, 32*1024)
	for i := range block {
		block[i] = byte('A' + i%26)
	}
	return block
}()

// writeFiller streams size bytes of deterministic filler.
func writeFiller(w http.ResponseWriter, size int64) {
	for size > 0 {
		n := int64(len(fillerBlock))
		if n > size {
			n = size
		}
		if _, err := w.Write(fillerBlock[:n]); err != nil {
			return
		}
		size -= n
	}
}
