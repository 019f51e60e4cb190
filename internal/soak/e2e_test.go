package soak

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/dash"
	"bba/internal/media"
	"bba/internal/netem"
	"bba/internal/stats"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// e2eSessions is the concurrency the determinism test pins: at least
// eight simultaneous real-socket sessions against one origin.
const e2eSessions = 8

// e2eAlgorithms are the buffer-based and constant policies whose
// decisions are a pure function of the seeds — no throughput estimator
// whose input is the wall clock. BBA-0's reservoir (90s) dwarfs any
// buffer this short a session can build, so its rate choice is
// timing-independent too.
var e2eAlgorithms = []string{"Rmax Always", "BBA-0", "Rmin Always"}

// TestE2EConcurrentSessionDeterminism boots one dashserver origin and
// runs two identical waves of e2eSessions concurrent dash clients
// through netem-shaped connections, each session with its own derived
// seed and shaping rate. The timing-stripped decision projection of
// every session's journal must be byte-identical across waves: same
// seeds, same decisions, regardless of goroutine interleaving (the
// test's whole point under -race).
func TestE2EConcurrentSessionDeterminism(t *testing.T) {
	video, err := media.NewVBR(media.VBRConfig{
		Title:         "e2e",
		Ladder:        media.DefaultLadder(),
		ChunkDuration: 500 * time.Millisecond,
		NumChunks:     8,
	}, newRand(42))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dash.NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	origin, err := dash.StartOrigin("127.0.0.1:0", srv, dash.OriginConfig{ShutdownGrace: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close(context.Background())

	first := e2eWave(t, origin.URL())
	second := e2eWave(t, origin.URL())

	for i := range first {
		if first[i] != second[i] {
			t.Errorf("session %d projection diverged between waves:\n--- wave 1 ---\n%s--- wave 2 ---\n%s",
				i, first[i], second[i])
		}
		if n := strings.Count(first[i], "chunk_request"); n != 8 {
			t.Errorf("session %d requested %d chunks, want 8", i, n)
		}
		if !strings.Contains(first[i], "session_end") {
			t.Errorf("session %d projection has no session_end", i)
		}
	}
}

// e2eWave runs e2eSessions concurrent sessions and returns each one's
// rendered decision projection, indexed by session number.
func e2eWave(t *testing.T, url string) []string {
	t.Helper()
	renders := make([]string, e2eSessions)
	errs := make([]error, e2eSessions)
	var wg sync.WaitGroup
	for i := 0; i < e2eSessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			renders[i], errs[i] = e2eSession(url, i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	return renders
}

// e2eSession drives one shaped real-HTTP session and returns its
// rendered projection. Everything that could vary — algorithm, seed,
// shaping rate, session label — derives from the session index alone.
func e2eSession(url string, i int) (string, error) {
	alg := e2eAlgorithms[i%len(e2eAlgorithms)]
	seed := int64(stats.Mix(99, uint64(i)))
	// Shape each session differently (20–32 Mb/s), all comfortably above
	// the top rung so pacing never starves a decision.
	shaped := trace.Constant(units.BitRate(20000+4000*(i%4))*units.Kbps, time.Minute)
	shaper := netem.NewShaper(shaped)
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return netem.NewConn(c, shaper), nil
		},
		MaxIdleConnsPerHost: 2,
	}
	defer transport.CloseIdleConnections()
	algorithm, err := abr.New(alg)
	if err != nil {
		return "", err
	}
	capture := &telemetry.Capture{}
	_, err = dash.Stream(context.Background(), dash.ClientConfig{
		Endpoints:  []string{url},
		Fetch:      fetchPolicy(seed),
		HTTPClient: &http.Client{Transport: transport},
		Algorithm:  algorithm,
		Observer:   telemetry.Stamp{Session: fmt.Sprintf("e2e.s%d.%s", i, alg), Next: capture},
	})
	if err != nil {
		return "", err
	}
	return Render(Project(capture.Events)), nil
}
