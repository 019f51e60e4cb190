package dash

import (
	"fmt"
	"net/http"
	"time"

	"bba/internal/obs"
)

// OriginConfig configures the serving shell around a chunk Server.
type OriginConfig struct {
	// Metrics, when non-nil, is served at /metrics (wire a
	// *telemetry.Prom that is also the Server's Observer).
	Metrics http.Handler
	// ShutdownGrace bounds how long Close waits for in-flight chunk
	// downloads before closing their connections (default 5 s).
	ShutdownGrace time.Duration
}

// StartOrigin binds addr (host:port; port 0 picks a free port) and serves
// srv plus /metrics and /healthz on one obs.Server shell in a background
// goroutine. It is the entry point both cmd/dashserver and the soak rig
// boot origins through — ask for address ":0" and read the bound address
// back from the returned server's Addr, so parallel instances never race
// on a port.
func StartOrigin(addr string, srv *Server, cfg OriginConfig) (*obs.Server, error) {
	if srv == nil {
		return nil, fmt.Errorf("dash: StartOrigin with nil server")
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 5 * time.Second
	}

	// The chunk server is mounted bare: no middleware sits between the
	// listener and the chunk handler.
	mux := http.NewServeMux()
	mux.Handle("/", srv)
	if cfg.Metrics != nil {
		mux.Handle("/metrics", cfg.Metrics)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		v := srv.Video()
		obs.WriteHealth(w, true, "ok", map[string]any{
			"title":    v.Title,
			"chunks":   v.NumChunks(),
			"requests": srv.Requests(),
		})
	})
	return obs.Serve(addr, mux, cfg.ShutdownGrace)
}
