package dash

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/telemetry"
)

func TestEndpointSetSwitchesAfterRepeatedFailure(t *testing.T) {
	es := newEndpointSet([]string{"a", "b", "c"})
	if i, url := es.current(); i != 0 || url != "a" {
		t.Fatalf("fresh set starts at %d %q, want the primary", i, url)
	}
	if sw, _, _ := es.failure(); sw {
		t.Fatal("switched after one failure")
	}
	sw, from, to := es.failure()
	if !sw || from != 0 || to != 1 {
		t.Fatalf("second failure: switched=%v %d->%d, want 0->1", sw, from, to)
	}
	// Failures on the fallback drive it to the next alternative once it,
	// too, hits the threshold — but only if somewhere healthier exists.
	es.failure()
	sw, from, to = es.failure()
	if !sw || from != 1 || to != 2 {
		t.Fatalf("fallback exhausted: switched=%v %d->%d, want 1->2", sw, from, to)
	}
	// Any further switch must land on a strictly healthier endpoint —
	// never flap between equally dead ones.
	for i := 0; i < 10; i++ {
		if sw, fromI, toI := es.failure(); sw && es.scores[toI] <= es.scores[fromI] {
			t.Fatal("flapped to an endpoint no healthier than the current one")
		}
	}
}

func TestEndpointSetFailsBackToPrimary(t *testing.T) {
	es := newEndpointSet([]string{"a", "b"})
	es.failure()
	if sw, _, _ := es.failure(); !sw {
		t.Fatal("no switch at the threshold")
	}
	for i := 0; i < FailBackAfter-1; i++ {
		if sw, _, _ := es.success(); sw {
			t.Fatalf("failed back after only %d successes", i+1)
		}
	}
	sw, from, to := es.success()
	if !sw || from != 1 || to != 0 {
		t.Fatalf("fail-back: switched=%v %d->%d, want 1->0 after %d successes", sw, from, to, FailBackAfter)
	}
	if es.scores[0] != 0 {
		t.Fatalf("primary rejoined with score %d, want a clean 0", es.scores[0])
	}
}

func TestEndpointSetSingleEndpointNeverSwitches(t *testing.T) {
	es := newEndpointSet([]string{"only"})
	for i := 0; i < 20; i++ {
		if sw, _, _ := es.failure(); sw {
			t.Fatal("single-endpoint set switched")
		}
	}
}

func TestStreamFailsOverToHealthyEndpoint(t *testing.T) {
	video := testVideo(t, 10, 500*time.Millisecond)
	bad, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	good, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	tsBad := httptest.NewServer(failChunks(bad, func(rate, chunk int) bool { return true }))
	defer tsBad.Close()
	tsGood := httptest.NewServer(good)
	defer tsGood.Close()

	var events []telemetry.Event
	res, err := Stream(context.Background(), ClientConfig{
		Endpoints: []string{tsBad.URL, tsGood.URL},
		Algorithm: abr.NewBBA0(),
		Fetch: FetchPolicy{
			MaxAttempts: 6,
			BackoffBase: time.Millisecond,
			BackoffCap:  5 * time.Millisecond,
		},
		Observer: telemetry.Func(func(e telemetry.Event) { events = append(events, e) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Incomplete {
		t.Fatal("session failed despite a healthy fallback endpoint")
	}
	if res.ChunkCount() != 10 {
		t.Fatalf("downloaded %d chunks, want 10", res.ChunkCount())
	}
	if res.Failovers == 0 {
		t.Fatal("no failover recorded against a dead primary")
	}
	if res.Retries == 0 {
		t.Fatal("no retries recorded against a dead primary")
	}
	// The first failover must target the healthy fallback; later ones may
	// be fail-back probes toward the (still dead) primary.
	var sawFailover, sawRetry bool
	for _, e := range events {
		switch e.Kind {
		case telemetry.Failover:
			if !sawFailover && e.Label != tsGood.URL {
				t.Errorf("first failover label %q, want the fallback URL %q", e.Label, tsGood.URL)
			}
			sawFailover = true
		case telemetry.ChunkRetry:
			sawRetry = true
		}
	}
	if !sawFailover || !sawRetry {
		t.Fatalf("telemetry missing failover=%v retry=%v", sawFailover, sawRetry)
	}
	if good.Requests() == 0 {
		t.Fatal("healthy endpoint never served a chunk")
	}
}

func TestStreamManifestFallsBackAcrossEndpoints(t *testing.T) {
	video := testVideo(t, 6, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer dead.Close()

	res, err := Stream(context.Background(), ClientConfig{
		Endpoints: []string{dead.URL, ts.URL},
		Algorithm: abr.NewBBA0(),
		Fetch:     FetchPolicy{MaxAttempts: 4, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunkCount() != 6 {
		t.Fatalf("downloaded %d chunks, want 6", res.ChunkCount())
	}
}

func TestServerInjectorFaultMode(t *testing.T) {
	video := testVideo(t, 4, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	prom := telemetry.NewProm("test")
	srv.Observer = prom
	srv.Injector = &faults.HTTPInjector{
		Schedule: faults.MustSchedule([]faults.Fault{
			{Kind: faults.ServerError, Start: 0, Duration: time.Hour},
		}),
		Seed: 9,
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ok503, ok200 int
	for i := 0; i < 40; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/chunk/0/0?s=1&a=%d&t=0", ts.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusServiceUnavailable:
			ok503++
		case http.StatusOK:
			ok200++
		default:
			t.Fatalf("unexpected status %d", resp.StatusCode)
		}
	}
	if ok503 == 0 {
		t.Fatal("no 503s during a permanent server_error episode")
	}
	if ok200 == 0 {
		t.Fatal("no successes at p=0.9 over 40 requests")
	}
	var buf strings.Builder
	prom.WriteTo(&buf)
	if !strings.Contains(buf.String(), `test_faults_injected_total{kind="server_error"}`) {
		t.Fatal("/metrics missing the faults_injected_total counter")
	}
}

func TestServerInjectorConnReset(t *testing.T) {
	video := testVideo(t, 4, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	srv.Injector = &faults.HTTPInjector{
		Schedule: faults.MustSchedule([]faults.Fault{
			{Kind: faults.ConnReset, Start: 0, Duration: time.Hour},
		}),
		Seed: 2,
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	sawReset := false
	for i := 0; i < 40 && !sawReset; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/chunk/0/0?s=1&a=%d&t=0", ts.URL, i))
		if err != nil {
			// Reset before headers — also a valid observation.
			sawReset = true
			break
		}
		want := video.ChunkSize(0, 0)
		n, err := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || (resp.StatusCode == http.StatusOK && n < want) {
			sawReset = true
		}
	}
	if !sawReset {
		t.Fatal("no mid-download reset observed in 40 requests at p=0.9")
	}
}
