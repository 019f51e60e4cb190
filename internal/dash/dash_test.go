package dash

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/media"
	"bba/internal/netem"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// failChunks serves h, except that chunk requests fail matches are
// answered 503.
func failChunks(h http.Handler, fail func(rate, chunk int) bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rate, chunk int
		if _, err := fmt.Sscanf(r.URL.Path, "/chunk/%d/%d", &rate, &chunk); err == nil && fail(rate, chunk) {
			http.Error(w, "injected failure", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(w, r)
	})
}

func testVideo(t testing.TB, chunks int, v time.Duration) *media.Video {
	t.Helper()
	vid, err := media.NewVBR(media.VBRConfig{
		Title:         "e2e",
		Ladder:        media.DefaultLadder(),
		ChunkDuration: v,
		NumChunks:     chunks,
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	return vid
}

func TestManifestRoundTrip(t *testing.T) {
	orig := testVideo(t, 20, media.DefaultChunkDuration)
	m := ManifestFor(orig)
	back, err := m.Video()
	if err != nil {
		t.Fatal(err)
	}
	if back.NumChunks() != orig.NumChunks() || back.ChunkDuration != orig.ChunkDuration {
		t.Fatal("shape lost in round trip")
	}
	for ri := range orig.Ladder {
		if back.Ladder[ri] != orig.Ladder[ri] {
			t.Fatalf("ladder rate %d differs", ri)
		}
		for k := 0; k < orig.NumChunks(); k++ {
			if back.ChunkSize(ri, k) != orig.ChunkSize(ri, k) {
				t.Fatalf("size (%d,%d) differs", ri, k)
			}
		}
	}
}

func TestServerServesManifestAndChunks(t *testing.T) {
	video := testVideo(t, 10, media.DefaultChunkDuration)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m, err := decodeManifest(raw)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumChunks != 10 || len(m.LadderBps) != len(video.Ladder) {
		t.Fatalf("manifest shape: %+v", m)
	}

	// A chunk's body length must match the advertised size.
	resp, err = http.Get(ts.URL + "/chunk/3/5")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if n != video.ChunkSize(3, 5) {
		t.Errorf("chunk body %d bytes, want %d", n, video.ChunkSize(3, 5))
	}

	// Out-of-range and malformed requests 404/400 without panicking.
	for _, path := range []string{"/chunk/99/0", "/chunk/0/999", "/chunk/x/y", "/chunk/1", "/nope"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("path %q unexpectedly succeeded", path)
		}
	}
	if srv.Requests() == 0 {
		t.Error("request counter did not move")
	}
}

func TestStreamEndToEnd(t *testing.T) {
	// Short chunks keep the real-time session fast: 24 × 500 ms = 12 s of
	// video over a fast loopback link completes in well under a second of
	// wall time (downloads are quick, the buffer never fills).
	video := testVideo(t, 24, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := Stream(context.Background(), ClientConfig{
		BaseURL:   ts.URL,
		Algorithm: abr.NewBBA2(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkCount() != 24 {
		t.Fatalf("downloaded %d chunks, want 24", res.ChunkCount())
	}
	if res.Played != 12*time.Second {
		t.Errorf("played %v, want 12s", res.Played)
	}
	if res.Rebuffers != 0 {
		t.Errorf("rebuffers = %d on loopback", res.Rebuffers)
	}
	// On an unconstrained link the rate must climb off R_min.
	if res.ChunkRateKbps(res.ChunkCount()-1) == video.Ladder.Min().Kilobits() {
		t.Error("rate never climbed on a fast link")
	}
}

func TestStreamThroughShapedLink(t *testing.T) {
	// End-to-end through a 2 Mb/s shaped connection: the client must
	// settle near the ladder rung the link supports, not at R_max.
	video := testVideo(t, 16, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	linkTrace := trace.Constant(2*units.Mbps, time.Hour)
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return netem.NewConn(c, netem.NewShaper(linkTrace)), nil
		},
	}
	capture := &telemetry.Capture{}
	if _, err := Stream(context.Background(), ClientConfig{
		BaseURL:    ts.URL,
		HTTPClient: &http.Client{Transport: transport},
		Algorithm:  abr.NewBBA2(),
		Observer:   capture,
	}); err != nil {
		t.Fatal(err)
	}
	// Measured throughput on downloads must reflect the shaping: no chunk
	// can have seen much more than 2 Mb/s.
	for _, e := range capture.Events {
		if e.Kind == telemetry.ChunkComplete && e.Throughput > 4*units.Mbps {
			t.Errorf("chunk %d measured %v through a 2Mb/s link", e.Chunk, e.Throughput)
		}
	}
}

func TestStreamRetriesTransientFailures(t *testing.T) {
	video := testVideo(t, 8, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	// Chunk 3 fails on its first attempt only.
	var failed atomic.Bool
	ts := httptest.NewServer(failChunks(srv, func(rate, chunk int) bool {
		return chunk == 3 && failed.CompareAndSwap(false, true)
	}))
	defer ts.Close()

	res, err := Stream(context.Background(), ClientConfig{
		BaseURL:   ts.URL,
		Algorithm: abr.NewBBA0(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete {
		t.Error("transient failure should have been retried")
	}
	if res.ChunkCount() != 8 {
		t.Errorf("downloaded %d chunks, want 8", res.ChunkCount())
	}
}

func TestStreamGivesUpAfterPersistentFailures(t *testing.T) {
	video := testVideo(t, 8, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(failChunks(srv, func(rate, chunk int) bool { return chunk == 2 }))
	defer ts.Close()

	res, err := Stream(context.Background(), ClientConfig{
		BaseURL:   ts.URL,
		Algorithm: abr.NewBBA0(),
		Fetch:     FetchPolicy{MaxAttempts: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Error("persistent failure should mark the session incomplete")
	}
	if res.ChunkCount() != 2 {
		t.Errorf("downloaded %d chunks before the dead chunk, want 2", res.ChunkCount())
	}
}

func TestStreamWatchLimit(t *testing.T) {
	video := testVideo(t, 40, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	limit := 5 * time.Second
	res, err := Stream(context.Background(), ClientConfig{
		BaseURL:    ts.URL,
		Algorithm:  abr.NewBBA2(),
		WatchLimit: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Played != limit {
		t.Errorf("played %v, want %v", res.Played, limit)
	}
}

func TestStreamContextCancellation(t *testing.T) {
	video := testVideo(t, 40, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	// Every chunk's first byte waits 50 ms, so the deadline lands mid-session.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/chunk/") {
			time.Sleep(50 * time.Millisecond)
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	_, err = Stream(ctx, ClientConfig{BaseURL: ts.URL, Algorithm: abr.NewBBA0()})
	if err == nil {
		t.Fatal("cancelled stream returned no error")
	}
}

func TestStreamBadBaseURL(t *testing.T) {
	_, err := Stream(context.Background(), ClientConfig{
		BaseURL:   "http://127.0.0.1:1", // nothing listens here
		Algorithm: abr.NewBBA0(),
	})
	if err == nil || !strings.Contains(err.Error(), "manifest") {
		t.Errorf("err = %v, want manifest fetch failure", err)
	}
	if _, err := Stream(context.Background(), ClientConfig{BaseURL: "x"}); err == nil {
		t.Error("nil algorithm accepted")
	}
}

// TestStreamRefusesWideLadder: a session's rate record keeps one uint8 rung
// index per chunk, so a title served with 257 rungs is refused before the
// first chunk, with the bound named.
func TestStreamRefusesWideLadder(t *testing.T) {
	ladder := make(media.Ladder, 257)
	for i := range ladder {
		ladder[i] = units.BitRate(100+i) * units.Kbps
	}
	video, err := media.NewCBR("wide", ladder, 500*time.Millisecond, 2)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	var chunks atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/chunk/") {
			chunks.Add(1)
		}
		srv.ServeHTTP(w, r)
	}))
	defer ts.Close()
	_, err = Stream(context.Background(), ClientConfig{BaseURL: ts.URL, Algorithm: abr.RminAlways{}})
	if err == nil || !strings.Contains(err.Error(), "at most 256 rungs") {
		t.Fatalf("Stream = %v, want a refusal naming the 256-rung bound", err)
	}
	if n := chunks.Load(); n != 0 {
		t.Errorf("%d chunks fetched before the refusal", n)
	}
}

func TestStreamRminPromotion(t *testing.T) {
	video := testVideo(t, 8, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	res, err := Stream(context.Background(), ClientConfig{
		BaseURL:   ts.URL,
		Algorithm: abr.RminAlways{},
		Rmin:      560 * units.Kbps,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.ChunkCount(); i++ {
		if r := res.ChunkRateKbps(i); r != 560 {
			t.Fatalf("chunk %d at %v kb/s, want promoted R_min 560kb/s", i, r)
		}
	}
}

// TestStreamManifestFetchErrors: the manifest is fetched status first,
// then a bounded read, then the parser. One good session, then the
// manifest answered with a 404, a 500 and an oversized 200: the error must
// name the status (or the size), never be the parser choking on an error
// page.
func TestStreamManifestFetchErrors(t *testing.T) {
	video := testVideo(t, 4, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	const path = "/manifest.json"
	// origin answers the manifest with bad, when set, and everything else
	// like the server.
	origin := func(bad func(w http.ResponseWriter)) string {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if bad != nil && r.URL.Path == path {
				bad(w)
				return
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		return ts.URL
	}

	failures := []struct {
		name    string
		respond func(w http.ResponseWriter)
		want    string
	}{
		{"404", func(w http.ResponseWriter) { http.Error(w, "no such document", http.StatusNotFound) }, "status 404"},
		{"500", func(w http.ResponseWriter) { http.Error(w, "internal error", http.StatusInternalServerError) }, "status 500"},
		{"oversized", func(w http.ResponseWriter) { w.Write(make([]byte, 8<<20+1)) }, "exceeds"},
	}
	cfg := ClientConfig{Algorithm: abr.RminAlways{}, BaseURL: origin(nil)}
	if res, err := Stream(context.Background(), cfg); err != nil || res.ChunkCount() != 4 {
		t.Fatalf("good session failed: %v", err)
	}
	for _, f := range failures {
		cfg.BaseURL = origin(f.respond)
		_, err := Stream(context.Background(), cfg)
		if err == nil || !strings.Contains(err.Error(), f.want) || !strings.Contains(err.Error(), path) {
			t.Errorf("%s answered %s: err = %v, want one naming %q and the document", path, f.name, err, f.want)
		}
	}
}

// TestStreamCancelDuringPacing: the ON-OFF wait is interruptible. Two 2 s
// chunks fill a 4 s buffer at once and the client idles 2 s for space;
// cancelling inside that idle returns promptly instead of sleeping it out.
func TestStreamCancelDuringPacing(t *testing.T) {
	video := testVideo(t, 10, 2*time.Second)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = Stream(ctx, ClientConfig{BaseURL: ts.URL, Algorithm: abr.RminAlways{}, BufferMax: 4 * time.Second})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want the context error", err)
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("cancel took %v to take effect; the pacing wait was slept through", took)
	}
}
