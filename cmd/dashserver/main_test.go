package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestBuildServer(t *testing.T) {
	srv, video, err := buildServer(30, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if video.NumChunks() != 30 {
		t.Errorf("chunks = %d", video.NumChunks())
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("manifest status %s", resp.Status)
	}
	// Zero chunks falls back to the VBR default title length.
	_, v2, err := buildServer(0, 4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v2.NumChunks() != 1800 {
		t.Errorf("defaulted chunks = %d, want 1800", v2.NumChunks())
	}
}

// startDaemon runs the daemon on ":0" and returns its bound address plus a
// shutdown func that waits for a clean exit.
func startDaemon(t *testing.T, cfg serverConfig) (addr string, shutdown func()) {
	t.Helper()
	ready := make(chan string, 1)
	cfg.addr = "127.0.0.1:0"
	cfg.ready = ready
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()
	select {
	case addr = <-ready:
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	return addr, func() {
		cancel()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

func TestObservabilityEndpoints(t *testing.T) {
	addr, shutdown := startDaemon(t, serverConfig{chunks: 20, chunkMS: 4000, seed: 1})
	defer shutdown()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, _ := get("/chunk/0/0"); code != http.StatusOK {
		t.Fatalf("chunk status %d", code)
	}
	if code, _ := get("/chunk/0/1"); code != http.StatusOK {
		t.Fatalf("chunk status %d", code)
	}

	code, body := get("/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz status %d", code)
	}
	var health struct {
		Status   string `json:"status"`
		Chunks   int    `json:"chunks"`
		Requests int64  `json:"requests"`
	}
	if err := json.Unmarshal([]byte(body), &health); err != nil {
		t.Fatalf("healthz not JSON: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Chunks != 20 || health.Requests != 2 {
		t.Errorf("healthz = %+v", health)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("metrics status %d", code)
	}
	for _, want := range []string{
		"bba_chunks_requested_total 2",
		"bba_chunks_completed_total 2",
		"# TYPE bba_chunk_download_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
}

// TestParallelInstances pins the ":0" contract the soak rig depends on:
// several daemons started concurrently on port 0 bind distinct ports and
// all serve.
func TestParallelInstances(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		addr, shutdown := startDaemon(t, serverConfig{chunks: 5, chunkMS: 4000, seed: int64(i + 1)})
		defer shutdown()
		addrs = append(addrs, addr)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate bound address %s", a)
		}
		seen[a] = true
		resp, err := http.Get("http://" + a + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthz on %s: %s", a, resp.Status)
		}
	}
}

func TestGracefulShutdown(t *testing.T) {
	addr, shutdown := startDaemon(t, serverConfig{chunks: 10, chunkMS: 4000, seed: 1})
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	shutdown()
}
