package telemetry

import (
	"io"
	"net/http"
	"sync"

	"bba/internal/obs"
)

// Prom aggregates events into counters and histograms and serves them in
// Prometheus exposition format 0.0.4 through internal/obs — the /metrics
// endpoint on cmd/dashserver. It implements both Observer and
// http.Handler, and is safe for concurrent use.
type Prom struct {
	mu sync.Mutex
	ns string

	sessionsStarted uint64
	sessionsEnded   uint64
	chunksRequested uint64
	chunksCompleted uint64
	bytesTotal      uint64
	switches        uint64
	rebuffers       uint64
	seeks           uint64
	stallSeconds    float64
	faults          map[string]int64
	retries         uint64
	failovers       uint64
	degradations    uint64

	download  obs.Histogram // chunk download time, seconds
	occupancy obs.Histogram // buffer level at sample points, seconds
}

// NewProm returns a Prom whose metric names are prefixed "<namespace>_"
// (empty namespace means "bba").
func NewProm(namespace string) *Prom {
	if namespace == "" {
		namespace = "bba"
	}
	return &Prom{
		ns:        namespace,
		download:  obs.NewHistogram(0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30),
		occupancy: obs.NewHistogram(5, 15, 30, 60, 90, 120, 180, 240),
	}
}

// OnEvent implements Observer.
func (p *Prom) OnEvent(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case SessionStart:
		p.sessionsStarted++
	case SessionEnd:
		p.sessionsEnded++
	case ChunkRequest:
		p.chunksRequested++
	case ChunkComplete:
		p.chunksCompleted++
		if e.Bytes > 0 {
			p.bytesTotal += uint64(e.Bytes)
		}
		p.download.Observe(e.Duration.Seconds())
	case RateSwitch:
		p.switches++
	case RebufferStart:
		p.rebuffers++
	case RebufferEnd:
		p.stallSeconds += e.Duration.Seconds()
	case BufferSample:
		p.occupancy.Observe(e.Buffer.Seconds())
	case Seek:
		p.seeks++
	case FaultInject:
		if p.faults == nil {
			p.faults = make(map[string]int64)
		}
		p.faults[e.Label]++
	case ChunkRetry:
		p.retries++
	case Failover:
		p.failovers++
	case Degrade:
		p.degradations++
	}
}

// ServeHTTP implements http.Handler, serving the exposition text.
func (p *Prom) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	obs.Handler(p.write).ServeHTTP(w, r)
}

// WriteTo implements io.WriterTo, writing the exposition text.
func (p *Prom) WriteTo(w io.Writer) (int64, error) {
	var ow obs.Writer
	p.write(&ow)
	n, err := w.Write(ow.Bytes())
	return int64(n), err
}

// write encodes the current counters through the shared exposition writer.
func (p *Prom) write(w *obs.Writer) {
	p.mu.Lock()
	defer p.mu.Unlock()
	counter := func(name, help string, v float64) { w.Counter(p.ns+"_"+name, help, v) }
	counter("sessions_started_total", "Streaming sessions begun.", float64(p.sessionsStarted))
	counter("sessions_completed_total", "Streaming sessions finished.", float64(p.sessionsEnded))
	counter("chunks_requested_total", "Chunk requests issued.", float64(p.chunksRequested))
	counter("chunks_completed_total", "Chunk downloads completed.", float64(p.chunksCompleted))
	counter("downloaded_bytes_total", "Video bytes downloaded.", float64(p.bytesTotal))
	counter("rate_switches_total", "Video rate changes between consecutive chunks.", float64(p.switches))
	counter("rebuffers_total", "Rebuffer events (playback freezes).", float64(p.rebuffers))
	counter("stall_seconds_total", "Total time playback was frozen.", p.stallSeconds)
	counter("seeks_total", "Viewer seeks executed.", float64(p.seeks))
	if len(p.faults) > 0 {
		w.CounterVec(p.ns+"_faults_injected_total", "Injected faults observed, by kind.", "kind", p.faults)
	}
	counter("chunk_retries_total", "Chunk download re-attempts after failure.", float64(p.retries))
	counter("failovers_total", "Endpoint failovers executed by clients.", float64(p.failovers))
	counter("degradations_total", "Sessions degraded to minimum rate under faults.", float64(p.degradations))
	w.Histogram(p.ns+"_chunk_download_seconds", "Chunk download time.", &p.download)
	w.Histogram(p.ns+"_buffer_level_seconds", "Playback-buffer occupancy at decision points.", &p.occupancy)
}
