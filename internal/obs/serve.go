package obs

import (
	"context"
	"net"
	"net/http"
	"sync"
	"time"
)

// Server is a bound, serving HTTP listener: the shell every daemon (and
// every in-process origin or collector the soak rig boots) stands its mux
// on. Ask for "host:0" and read the bound address back from Addr, so
// parallel instances never race on a port.
type Server struct {
	hs    *http.Server
	addr  string
	grace time.Duration

	done     chan struct{}
	serveErr error

	closeOnce sync.Once
	closeErr  error
}

// Serve binds addr (host:port; port 0 picks a free port) and serves h on
// it in a background goroutine. grace bounds how long Close waits for
// in-flight requests.
func Serve(addr string, h http.Handler, grace time.Duration) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return serve(ln, h, grace), nil
}

// serve serves h on the bound listener ln in a background goroutine.
func serve(ln net.Listener, h http.Handler, grace time.Duration) *Server {
	s := &Server{
		hs:    &http.Server{Handler: h},
		addr:  ln.Addr().String(),
		grace: grace,
		done:  make(chan struct{}),
	}
	go func() {
		if err := s.hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.serveErr = err
		}
		close(s.done)
	}()
	return s
}

// Addr returns the bound listen address (host:port), with the real port
// when the server was started on port 0.
func (s *Server) Addr() string { return s.addr }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.addr }

// Done is closed when the serve loop exits; Err reports why (nil for a
// clean shutdown).
func (s *Server) Done() <-chan struct{} { return s.done }

// Err returns the serve loop's terminal error. Only valid after Done is
// closed.
func (s *Server) Err() error { return s.serveErr }

// Close drains the server: it stops accepting, lets in-flight requests
// finish for up to the grace (bounded further by ctx), cuts whatever is
// still open after that, and waits for the serve loop to exit. It returns
// the serve loop's error if there was one, else the drain's — a
// context.DeadlineExceeded means connections were cut. Close is
// idempotent; repeat calls return the first call's result.
func (s *Server) Close(ctx context.Context) error {
	s.closeOnce.Do(func() {
		shctx, cancel := context.WithTimeout(ctx, s.grace)
		defer cancel()
		err := s.hs.Shutdown(shctx)
		if err != nil {
			s.hs.Close()
		}
		<-s.done
		s.closeErr = err
		if s.serveErr != nil {
			s.closeErr = s.serveErr
		}
	})
	return s.closeErr
}
