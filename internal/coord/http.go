package coord

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"bba/internal/obs"
)

// Handler returns the coordinator's HTTP interface:
//
//	POST /join       register a worker; returns the campaign identity
//	POST /lease      acquire a shard-range lease
//	POST /heartbeat  extend held leases
//	POST /complete   deliver one finished shard's accumulators
//	GET  /report     the finalized campaign report (409 until complete)
//	GET  /metrics    Prometheus text exposition
//	GET  /healthz    liveness JSON
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/join", post(c, func(req JoinRequest) (JoinResponse, error) { return c.Join(req) }))
	mux.HandleFunc("/lease", post(c, func(req LeaseRequest) (LeaseResponse, error) { return c.Acquire(req) }))
	mux.HandleFunc("/heartbeat", post(c, func(req HeartbeatRequest) (HeartbeatResponse, error) { return c.Heartbeat(req) }))
	mux.HandleFunc("/complete", post(c, func(req CompleteRequest) (CompleteResponse, error) { return c.Complete(req) }))
	mux.HandleFunc("/report", c.handleReport)
	mux.Handle("/metrics", obs.Handler(c.writeMetrics))
	mux.HandleFunc("/healthz", c.handleHealthz)
	return mux
}

// maxBody bounds request bodies; a shard completion carries six quantile
// sketches per group, far under this.
const maxBody = 16 << 20

// post adapts a typed request/response exchange to an HTTP handler. A body
// is one JSON value: anything after it but white space is refused, as is a
// malformed or oversized value. Unknown fields are accepted, so a worker
// and its coordinator may differ by a version.
func post[Req, Resp any](c *Coordinator, f func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody))
		if err := dec.Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if _, err := dec.Token(); err != io.EOF {
			if err == nil {
				err = errors.New("coord: a second JSON value follows the request")
			}
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := f(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(resp)
	}
}

func (c *Coordinator) handleReport(w http.ResponseWriter, _ *http.Request) {
	body, err := c.Report()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s := c.Stats()
	obs.WriteHealth(w, true, "ok", map[string]any{
		"workers":        s.WorkersJoined,
		"shards_done":    s.ShardsDone,
		"shards_pending": s.ShardsPending,
		"shards_leased":  s.ShardsLeased,
		"complete":       s.Complete,
	})
}

// writeMetrics encodes a Stats snapshot through the shared exposition
// writer.
func (c *Coordinator) writeMetrics(w *obs.Writer) {
	s := c.Stats()
	w.Counter("bba_coord_workers_joined_total", "Workers that have registered.", float64(s.WorkersJoined))
	w.Counter("bba_coord_leases_granted_total", "Shard-range leases issued (including steals).", float64(s.LeasesGranted))
	w.Counter("bba_coord_leases_stolen_total", "Work-stealing re-leases of straggler tails.", float64(s.LeasesStolen))
	w.Counter("bba_coord_leases_expired_total", "Leases that lapsed without completion.", float64(s.LeasesExpired))
	w.Counter("bba_coord_shards_reissued_total", "Shards returned to pending by lease expiry.", float64(s.ShardsReissued))
	w.Counter("bba_coord_shards_completed_total", "Shard completions folded exactly once.", float64(s.Shards))
	w.Counter("bba_coord_shards_duplicate_total", "Duplicate shard completions absorbed as no-ops.", float64(s.ShardsDup))
	w.Gauge("bba_coord_shards_pending", "Shards awaiting a lease.", float64(s.ShardsPending))
	w.Gauge("bba_coord_shards_leased", "Shards under at least one live lease.", float64(s.ShardsLeased))
	w.Gauge("bba_coord_shards_done", "Shards folded into the checkpoint.", float64(s.ShardsDone))
	w.Gauge("bba_coord_leases_active", "Live leases.", float64(s.ActiveLeases))
	w.Gauge("bba_coord_oldest_lease_seconds", "Time since the oldest live lease was granted; 0 when none is live.", s.OldestLeaseAge.Seconds())
}
