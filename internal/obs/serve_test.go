package obs_test

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"bba/internal/obs"
)

// slowHandler answers /slow only once release is closed, signalling on
// entered when a request is in flight.
func slowHandler(entered chan<- struct{}, release <-chan struct{}) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fast", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "fast") })
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		entered <- struct{}{}
		<-release
		io.WriteString(w, "slow")
	})
	return mux
}

// get fetches url on a fresh connection and returns the body.
func get(url string) (string, error) {
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := c.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// TestServePortZero: ":0" binds a free port, Addr reports it, and it can be
// dialled.
func TestServePortZero(t *testing.T) {
	a, err := obs.Serve("127.0.0.1:0", slowHandler(nil, nil), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close(context.Background())
	b, err := obs.Serve("127.0.0.1:0", slowHandler(nil, nil), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close(context.Background())
	if _, port, err := net.SplitHostPort(a.Addr()); err != nil || port == "0" {
		t.Fatalf("Addr %q does not carry the bound port (%v)", a.Addr(), err)
	}
	if a.Addr() == b.Addr() {
		t.Fatalf("two servers share %s", a.Addr())
	}
	if a.URL() != "http://"+a.Addr() {
		t.Errorf("URL %q for Addr %q", a.URL(), a.Addr())
	}
	for _, s := range []*obs.Server{a, b} {
		if body, err := get(s.URL() + "/fast"); err != nil || body != "fast" {
			t.Errorf("GET %s/fast: %q, %v", s.URL(), body, err)
		}
	}
	if _, err := obs.Serve("127.0.0.1:-1", nil, time.Second); err == nil {
		t.Error("invalid address accepted")
	}
}

// TestCloseDrainsInsideGrace: a request in flight when Close begins runs
// to completion; new connections are refused; Close returns nil; a second
// Close is a no-op with the same result.
func TestCloseDrainsInsideGrace(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	s, err := obs.Serve("127.0.0.1:0", slowHandler(entered, release), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		body string
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		body, err := get(s.URL() + "/slow")
		inflight <- result{body, err}
	}()
	<-entered

	closed := make(chan error, 1)
	go func() { closed <- s.Close(context.Background()) }()
	// Close must be waiting on the in-flight request, not returning.
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if r := <-inflight; r.err != nil || r.body != "slow" {
		t.Errorf("in-flight request across Close: %q, %v", r.body, r.err)
	}
	if err := <-closed; err != nil {
		t.Errorf("Close = %v, want nil", err)
	}
	select {
	case <-s.Done():
	default:
		t.Error("Done not closed after Close")
	}
	if err := s.Err(); err != nil {
		t.Errorf("Err = %v after a clean shutdown", err)
	}
	if _, err := get(s.URL() + "/fast"); err == nil {
		t.Error("server still accepting after Close")
	}
	if err := s.Close(context.Background()); err != nil {
		t.Errorf("second Close = %v, want the first call's nil", err)
	}
}

// TestCloseCutsAfterGrace: a request that outlives the grace has its
// connection closed, and Close says so.
func TestCloseCutsAfterGrace(t *testing.T) {
	entered, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	s, err := obs.Serve("127.0.0.1:0", slowHandler(entered, release), 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	inflight := make(chan error, 1)
	go func() {
		_, err := get(s.URL() + "/slow")
		inflight <- err
	}()
	<-entered

	start := time.Now()
	err = s.Close(context.Background())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Close = %v, want context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond || d > 2*time.Second {
		t.Errorf("Close took %v for a 50ms grace", d)
	}
	select {
	case err := <-inflight:
		if err == nil {
			t.Error("request outliving the grace still got a response")
		}
	case <-time.After(2 * time.Second):
		t.Error("connection not cut after the grace")
	}
	if err2 := s.Close(context.Background()); !errors.Is(err2, context.DeadlineExceeded) {
		t.Errorf("second Close = %v, want the first call's result", err2)
	}
}
