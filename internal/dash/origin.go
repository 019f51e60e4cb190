package dash

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"bba/internal/obs"
)

// OriginConfig configures the serving shell around a chunk Server.
type OriginConfig struct {
	// Metrics, when non-nil, is served at /metrics (wire a
	// *telemetry.Prom that is also the Server's Observer).
	Metrics http.Handler
	// MaxConns caps the connections the origin serves concurrently
	// (0 = unbounded). Excess dials queue in the kernel accept backlog
	// instead of each spawning a serving goroutine — the bound that keeps
	// an overloaded origin degrading by queueing rather than by
	// collapsing. See DESIGN §12 for the load-ramp evidence.
	MaxConns int
	// ShutdownGrace bounds how long Close waits for in-flight chunk
	// downloads before closing their connections (default 5 s).
	ShutdownGrace time.Duration
}

// Origin is a bound, serving dash origin: the chunk Server plus /metrics
// and /healthz on one obs.Server shell. It is the entry point both
// cmd/dashserver and the soak rig boot instances through — ask for
// address ":0" and read the bound address back from Addr, so parallel
// instances never race on a port.
type Origin struct {
	// Server is the underlying chunk server (fault injection, observer
	// and latency knobs live there).
	Server *Server

	shell *obs.Server
}

// StartOrigin binds addr (host:port; port 0 picks a free port) and serves
// srv plus the observability endpoints on it in a background goroutine.
func StartOrigin(addr string, srv *Server, cfg OriginConfig) (*Origin, error) {
	if srv == nil {
		return nil, fmt.Errorf("dash: StartOrigin with nil server")
	}
	if cfg.ShutdownGrace <= 0 {
		cfg.ShutdownGrace = 5 * time.Second
	}
	var wrap func(net.Listener) net.Listener
	if cfg.MaxConns > 0 {
		wrap = func(ln net.Listener) net.Listener {
			return &limitListener{Listener: ln, sem: make(chan struct{}, cfg.MaxConns)}
		}
	}

	// The chunk server is mounted bare: no middleware sits between the
	// listener and ServeChunk.
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

	shell, err := obs.Serve(addr, mux, cfg.ShutdownGrace, wrap)
	if err != nil {
		return nil, err
	}
	return &Origin{Server: srv, shell: shell}, nil
}

// Addr returns the bound listen address (host:port), with the real port
// when the origin was started on ":0".
func (o *Origin) Addr() string { return o.shell.Addr() }

// URL returns the origin's base URL, the form ClientConfig endpoints take.
func (o *Origin) URL() string { return o.shell.URL() }

// Done is closed when the serve loop exits; Err reports why (nil for a
// clean shutdown).
func (o *Origin) Done() <-chan struct{} { return o.shell.Done() }

// Err returns the serve loop's terminal error. Only valid after Done is
// closed.
func (o *Origin) Err() error { return o.shell.Err() }

// Close shuts the origin down gracefully, draining in-flight downloads up
// to the configured grace (bounded further by ctx) before closing their
// connections, and returns the serve loop's error, if any.
func (o *Origin) Close(ctx context.Context) error { return o.shell.Close(ctx) }

// limitListener bounds concurrently-open accepted connections with a
// semaphore acquired before each Accept and released when the accepted
// connection closes. The same shape as x/net/netutil's LimitListener,
// inlined because the container carries no external modules.
type limitListener struct {
	net.Listener
	sem chan struct{}
}

func (l *limitListener) Accept() (net.Conn, error) {
	l.sem <- struct{}{}
	c, err := l.Listener.Accept()
	if err != nil {
		<-l.sem
		return nil, err
	}
	return &limitConn{Conn: c, sem: l.sem}, nil
}

type limitConn struct {
	net.Conn
	sem  chan struct{}
	once sync.Once
}

func (c *limitConn) Close() error {
	err := c.Conn.Close()
	c.once.Do(func() { <-c.sem })
	return err
}
