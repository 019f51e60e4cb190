// Package dash is the HTTP streaming substrate: a chunk server and a
// streaming client that exercise the ABR algorithms over a real HTTP path —
// TCP connections, HTTP requests, measured per-chunk downloads — instead of
// the virtual-time simulator. It mirrors the production setup the paper
// describes: "the client requests chunks of video from the server", each
// chunk a separate HTTP object, with the player measuring "how fast chunks
// arrive to estimate capacity".
//
// The server publishes one manifest, a JSON document carrying the ladder,
// the chunk duration and the full per-chunk size matrix (BBA-1's reservoir
// and chunk map are computed from upcoming chunk sizes, which only such a
// manifest carries), and serves deterministic filler bytes for every
// (rate, chunk) pair. In fault mode the server acts out the simulator's own
// fault decisions — added latency, 503s, stalled bodies, resets — on the
// session, attempt and session clock each chunk request names, so a socket
// session's faults replay in player.Run.
package dash

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
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

// maxChunkDurationMS is the longest chunk duration a time.Duration holds.
const maxChunkDurationMS = math.MaxInt64 / int64(time.Millisecond)

// Video reconstructs the media.Video the manifest describes. A manifest
// whose chunk duration does not fit a time.Duration, or whose numChunks
// disagrees with a rate's size row, is refused, naming the field.
func (m Manifest) Video() (*media.Video, error) {
	if m.ChunkDurationMS <= 0 || m.ChunkDurationMS > maxChunkDurationMS {
		return nil, fmt.Errorf("dash: manifest chunkDurationMs %d outside [1, %d]", m.ChunkDurationMS, maxChunkDurationMS)
	}
	for ri, row := range m.SizesBytes {
		if len(row) != m.NumChunks {
			return nil, fmt.Errorf("dash: manifest numChunks %d, but sizesBytes[%d] holds %d chunks", m.NumChunks, ri, len(row))
		}
	}
	ladder := make(media.Ladder, len(m.LadderBps))
	for i, bps := range m.LadderBps {
		ladder[i] = units.BitRate(bps)
	}
	return media.FromSizes(m.Title, ladder, time.Duration(m.ChunkDurationMS)*time.Millisecond, m.SizesBytes)
}

// Server serves one title over HTTP:
//
//	GET /manifest.json                 the title's manifest
//	GET /chunk/{rateIndex}/{chunkIndex}
//
// It implements http.Handler and is safe for concurrent use. The manifest
// is rendered once at construction: the title is immutable, so
// re-rendering per request only burns CPU under load.
type Server struct {
	video    *media.Video
	manifest []byte

	// Injector, when non-nil, puts the server in fault-injecting mode:
	// chunk requests inside scheduled episodes suffer 503s, stalled
	// bodies, mid-download aborts and added first-byte latency, as the
	// injector decides from the session, attempt and session clock each
	// request names (?s=&a=&t=); a chunk request that does not name them
	// is a 400.
	Injector *faults.HTTPInjector
	// Observer, when non-nil, receives server-side telemetry: a
	// ChunkRequest when a chunk request arrives, a ChunkComplete when its
	// body has been written, and in fault mode a FaultInject per injected
	// fault whose Session is the request's s in decimal (At is time since
	// server start). Wire a telemetry.Prom here to feed a /metrics
	// endpoint.
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
	return &Server{
		video:    v,
		manifest: raw,
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
	size := s.video.ChunkSize(rate, chunk)
	if s.Injector != nil {
		session, at, attempt, err := requestCoords(r.URL.Query())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		latency, kind, fault := s.Injector.Decide(session, at, chunk, attempt)
		if latency > 0 {
			time.Sleep(latency)
		}
		if fault {
			s.observeFault(session, kind, rate, chunk, size)
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
				time.Sleep(cmp.Or(s.Injector.StallSleep, 30*time.Second))
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

// requestCoords reads what a fault-mode origin decides a chunk request
// on: its session (s), session clock in ns (t) and 0-based attempt (a). A
// parameter that is missing, malformed, negative or overflows is an error
// naming it.
func requestCoords(q url.Values) (session uint64, at time.Duration, attempt int, err error) {
	names, bits := [3]string{"s", "t", "a"}, [3]int{64, 63, strconv.IntSize - 1}
	var n [3]uint64
	for i, name := range names {
		if n[i], err = strconv.ParseUint(q.Get(name), 10, bits[i]); err != nil {
			return 0, 0, 0, fmt.Errorf("fault mode: parameter %s: %w", name, err)
		}
	}
	return n[0], time.Duration(n[1]), int(n[2]), nil
}

// observeFault reports an injected fault through the server's Observer,
// naming the session it was decided for.
func (s *Server) observeFault(session uint64, kind faults.Kind, rate, chunk int, size int64) {
	if s.Observer == nil {
		return
	}
	s.Observer.OnEvent(telemetry.Event{
		Kind: telemetry.FaultInject, At: time.Since(s.start), Session: strconv.FormatUint(session, 10),
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
