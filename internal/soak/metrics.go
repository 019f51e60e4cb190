package soak

import (
	"net/http"
	"sync"
	"time"

	"bba/internal/obs"
)

// Metrics accumulates the soak daemon's SLO counters and serves them as
// Prometheus text through internal/obs. One Metrics instance is shared by the
// Runner (writer) and the daemon's HTTP endpoints (readers).
type Metrics struct {
	mu sync.Mutex

	start          time.Time
	cycles         int64
	cycleFailures  int64
	consecFailures int64
	sessions       int64
	sessionErrors  int64
	rebuffers      int64
	stallSeconds   float64
	chunks         int64
	checks         map[string]int64
	skipped        map[string]int64
	failures       map[string]int64

	lastViolations int64
	lastSeconds    float64
	lastCycle      int64
}

// NewMetrics returns an empty Metrics.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		checks:   make(map[string]int64),
		skipped:  make(map[string]int64),
		failures: make(map[string]int64),
	}
}

// ObserveCycle folds one finished cycle into the counters.
func (m *Metrics) ObserveCycle(c *Cycle) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cycles++
	m.lastCycle = int64(c.Index)
	m.lastViolations = int64(len(c.Violations))
	m.lastSeconds = c.Duration.Seconds()
	if c.Pass() {
		m.consecFailures = 0
	} else {
		m.cycleFailures++
		m.consecFailures++
	}
	for name, n := range c.Checks {
		m.checks[name] += int64(n)
	}
	for name, n := range c.Skipped {
		m.skipped[name] += int64(n)
	}
	for _, v := range c.Violations {
		m.failures[v.Invariant]++
	}
	for i := range c.Sessions {
		s := &c.Sessions[i]
		m.sessions++
		if s.Err != nil {
			m.sessionErrors++
		}
		if s.Result != nil {
			m.rebuffers += int64(s.Result.Rebuffers)
			m.stallSeconds += s.Result.StallTime.Seconds()
			m.chunks += int64(s.Result.ChunkCount())
		}
	}
}

// Healthy reports whether the most recent cycle passed (vacuously true
// before the first cycle completes).
func (m *Metrics) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.consecFailures == 0
}

// ServeHTTP implements the /metrics endpoint.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	obs.Handler(m.write).ServeHTTP(w, r)
}

// write encodes the counters through the shared exposition writer.
func (m *Metrics) write(w *obs.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()
	w.Counter("soak_cycles_total", "Completed soak cycles.", float64(m.cycles))
	w.Counter("soak_cycle_failures_total", "Cycles with at least one invariant violation.", float64(m.cycleFailures))
	w.Counter("soak_sessions_total", "Client sessions driven.", float64(m.sessions))
	w.Counter("soak_session_errors_total", "Sessions ending in a hard error.", float64(m.sessionErrors))
	w.Counter("soak_rebuffers_total", "Rebuffer events across all sessions.", float64(m.rebuffers))
	w.Counter("soak_chunks_total", "Chunks downloaded across all sessions.", float64(m.chunks))
	w.Counter("soak_stall_seconds_total", "Total stall time across all sessions.", m.stallSeconds)
	w.CounterVec("soak_invariant_checks_total", "Invariant evaluations by name.", "invariant", m.checks)
	w.CounterVec("soak_invariant_skipped_total", "Sessions an invariant did not apply to or could not be decided on, by name.", "invariant", m.skipped)
	w.CounterVec("soak_invariant_failures_total", "Invariant violations by name.", "invariant", m.failures)
	w.Gauge("soak_consecutive_cycle_failures", "Failing cycles in a row (0 = healthy).", float64(m.consecFailures))
	w.Gauge("soak_last_cycle_violations", "Violations in the most recent cycle.", float64(m.lastViolations))
	w.Gauge("soak_last_cycle_duration_seconds", "Wall-clock duration of the most recent cycle.", m.lastSeconds)
	w.Gauge("soak_last_cycle_index", "Index of the most recent cycle.", float64(m.lastCycle))
	w.Gauge("soak_up_seconds", "Daemon uptime.", time.Since(m.start).Seconds())
}

// Healthz returns the /healthz handler: 200 with a JSON body while the
// latest cycle passed, 503 while cycles are failing.
func (m *Metrics) Healthz() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		m.mu.Lock()
		healthy := m.consecFailures == 0
		fields := map[string]any{
			"cycles":               m.cycles,
			"cycle_failures":       m.cycleFailures,
			"consecutive_failures": m.consecFailures,
		}
		m.mu.Unlock()
		status := "ok"
		if !healthy {
			status = "failing"
		}
		obs.WriteHealth(w, healthy, status, fields)
	})
}
