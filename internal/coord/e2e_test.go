package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bba/internal/netem"
	"bba/internal/trace"
	"bba/internal/units"
)

// startCoord serves a coordinator over an in-process HTTP server.
func startCoord(t *testing.T, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	t.Cleanup(srv.Close)
	return c, srv
}

// TestE2ESingleWorker pins the base fleet contract: coordinator + one
// worker over real HTTP produces the exact bytes a local single-process
// run of the same seed produces — on either engine.
func TestE2ESingleWorker(t *testing.T) {
	spec := testSpec(96) // 12 shards
	want := localReport(t, spec)
	for _, batch := range []bool{false, true} {
		name := "scalar"
		if batch {
			name = "batch"
		}
		t.Run(name, func(t *testing.T) {
			c, srv := startCoord(t, Config{Spec: spec, LeaseShards: 3})
			stats, err := RunWorker(context.Background(), WorkerConfig{
				URL:         srv.URL,
				Name:        "solo",
				Parallelism: 2,
				Batch:       batch,
				Poll:        5 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Engine != name {
				t.Errorf("worker engine %q, want %q", stats.Engine, name)
			}
			if stats.ShardsRun != 12 || stats.SessionsRun != 96 {
				t.Errorf("worker ran %d shards / %d sessions, want 12 / 96", stats.ShardsRun, stats.SessionsRun)
			}
			if stats.Elapsed <= 0 || stats.SessionsPerSecond() <= 0 {
				t.Errorf("worker stats carry no wall-clock: elapsed %v, %.0f sessions/s", stats.Elapsed, stats.SessionsPerSecond())
			}
			select {
			case <-c.Done():
			default:
				t.Fatal("coordinator not complete after worker exit")
			}
			client := &Client{URL: srv.URL, Worker: "solo"}
			got, err := client.Report(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s fleet report differs from local run", name)
			}
		})
	}
}

// TestE2EWorkerKilledMidCampaign pins the churn contract: four workers,
// one dies mid-lease (BeforeShard failure injection), the survivors
// reclaim its shards via expiry or stealing, and the report is still
// byte-identical to the local run with no double-counted shards.
func TestE2EWorkerKilledMidCampaign(t *testing.T) {
	spec := testSpec(96) // 12 shards
	want := localReport(t, spec)
	c, srv := startCoord(t, Config{
		Spec:        spec,
		LeaseShards: 2,
		LeaseTTL:    200 * time.Millisecond,
	})

	killed := errors.New("worker killed by test")
	var fatal atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := 0; i < 4; i++ {
		cfg := WorkerConfig{
			URL:         srv.URL,
			Name:        fmt.Sprintf("w%d", i),
			Parallelism: 1,
			Poll:        5 * time.Millisecond,
		}
		if i == 0 {
			// w0 dies before executing its first leased shard: the lease
			// stays open, its heartbeats stop, and the shards must come
			// back through expiry or work-stealing.
			cfg.BeforeShard = func(int) error { fatal.Store(true); return killed }
		}
		wg.Add(1)
		go func(i int, cfg WorkerConfig) {
			defer wg.Done()
			_, errs[i] = RunWorker(context.Background(), cfg)
		}(i, cfg)
	}
	wg.Wait()

	if !fatal.Load() {
		t.Fatal("failure injection never fired — w0 acquired no lease")
	}
	if !errors.Is(errs[0], killed) {
		t.Errorf("killed worker returned %v, want the injected error", errs[0])
	}
	for i := 1; i < 4; i++ {
		if errs[i] != nil {
			t.Errorf("surviving worker w%d: %v", i, errs[i])
		}
	}

	select {
	case <-c.Done():
	default:
		t.Fatal("coordinator not complete after survivors exited")
	}
	s := c.Stats()
	if s.Shards != 12 {
		t.Errorf("coordinator folded %d shards, want exactly 12", s.Shards)
	}
	if s.LeasesExpired == 0 && s.LeasesStolen == 0 {
		t.Error("dead worker's shards were reclaimed neither by expiry nor stealing")
	}
	got, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fleet report after worker death differs from local run")
	}
}

// lossDupTransport manufactures the loss and at-least-once pathologies a
// worker's calls meet, deterministically (internal/collect's tests hold
// /ingest to the same three):
//
//   - request k of its count (from 0, re-sends included) fails at the edge
//     iff k%failEvery == 0, with a synthesized 503 that never reaches the
//     coordinator (loss),
//   - every dupEvery-th acknowledged completion is delivered a second time,
//     and
//   - every loseAckEvery-th has its acknowledgement replaced by a
//     synthesized 503 — the coordinator folded the shard but the worker
//     must assume it did not, so its retry is a duplicate completion.
type lossDupTransport struct {
	base                              http.RoundTripper
	failEvery, dupEvery, loseAckEvery int64
	requests, failed, acked           atomic.Int64
}

// unavailable is a 503 synthesized on the worker's side of the wire.
func unavailable(req *http.Request) *http.Response {
	return &http.Response{
		Status: "503 Service Unavailable", StatusCode: http.StatusServiceUnavailable,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(nil)),
		Request: req,
	}
}

// send is the edge: it fails request k of the count iff k%failEvery == 0
// and passes the rest to base.
func (t *lossDupTransport) send(req *http.Request) (*http.Response, error) {
	if k := t.requests.Add(1) - 1; k%t.failEvery == 0 {
		t.failed.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		return unavailable(req), nil
	}
	return t.base.RoundTrip(req)
}

func (t *lossDupTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.send(req)
	if err != nil || resp.StatusCode != http.StatusOK || req.URL.Path != "/complete" {
		return resp, err
	}
	n := t.acked.Add(1)
	if n%t.dupEvery == 0 {
		if body, berr := req.GetBody(); berr == nil {
			dup := req.Clone(req.Context())
			dup.Body = body
			if dresp, derr := t.send(dup); derr == nil {
				io.Copy(io.Discard, dresp.Body)
				dresp.Body.Close()
			}
		}
	}
	if n%t.loseAckEvery == 0 {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return unavailable(req), nil
	}
	return resp, err
}

// TestE2EHostileTransport is the fold's acceptance test on the path shard
// accumulators cross a process boundary by, pinned in CI under -race: two
// workers whose every call rides a netem-shaped connection, with edge 503s
// (loss), re-sent completions and lost acknowledgements (duplicates), must
// still leave the coordinator with the byte-identical report a local run of
// the same spec produces — each shard folded exactly once.
func TestE2EHostileTransport(t *testing.T) {
	spec := testSpec(96) // 12 shards
	want := localReport(t, spec)
	c, srv := startCoord(t, Config{Spec: spec, LeaseShards: 2})

	shapedTrace := trace.MustNew([]trace.Segment{{Duration: time.Hour, Rate: 20 * units.Mbps}})
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	shaped := &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			c, err := dialer.DialContext(ctx, network, addr)
			if err != nil {
				return nil, err
			}
			return netem.NewConn(c, netem.NewShaper(shapedTrace)), nil
		},
	}
	defer shaped.CloseIdleConnections()
	// Each worker has its own client, and its edge fails a request by that
	// worker's request count alone: one request in seven, however fast the
	// machine runs. Five attempts a call are then enough. With Parallelism 1 a
	// worker's calls follow one another, so a call's requests are
	// consecutive on its count but for two intruders: one duplicate re-send
	// after an ack, and at most one heartbeat call of ≤ five attempts (one
	// comes every TTL/3 = 5 s; a call's back-off spans ≈ 1 s). Those eleven
	// consecutive requests hold at most two faulted ones. A lost
	// acknowledgement costs one more attempt, and only one: the retry's ack
	// is the next count, not a multiple of loseAckEvery. So at most three of
	// a call's five attempts fail.
	edges := make([]*lossDupTransport, 2)
	for i := range edges {
		edges[i] = &lossDupTransport{base: shaped, failEvery: 7, dupEvery: 2, loseAckEvery: 5}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = RunWorker(context.Background(), WorkerConfig{
				URL: srv.URL, Name: fmt.Sprintf("w%d", i), Parallelism: 1,
				Poll: 5 * time.Millisecond, HTTP: &http.Client{Transport: edges[i], Timeout: 10 * time.Second},
			})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker w%d: %v", i, err)
		}
	}

	select {
	case <-c.Done():
	default:
		t.Fatal("coordinator not complete after both workers exited")
	}
	// The report is fetched the way an operator fetches it, not through the
	// hostile client.
	got, err := (&Client{URL: srv.URL}).Report(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fleet report over the hostile transport differs from local run")
	}
	s := c.Stats()
	if s.Shards != 12 || s.ShardsDup == 0 {
		t.Errorf("coordinator folded %d shards with %d duplicate completions, want exactly 12 and > 0: the dup injection did not engage", s.Shards, s.ShardsDup)
	}
	if edges[0].failed.Load()+edges[1].failed.Load() == 0 {
		t.Error("no edge failure was injected — the loss injection did not engage")
	}
}

// TestE2EEndpoints pins the daemon surface: /report is 409 until the
// campaign completes, /healthz always answers, and /metrics exposes the
// coordinator counters in Prometheus text form.
func TestE2EEndpoints(t *testing.T) {
	spec := testSpec(16) // 2 shards
	c, srv := startCoord(t, Config{Spec: spec, LeaseShards: 8})

	if resp, err := http.Get(srv.URL + "/report"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusConflict {
			t.Errorf("/report before completion: %s, want 409", resp.Status)
		}
	}
	if resp, err := http.Get(srv.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
			t.Errorf("/healthz: %s %q", resp.Status, body)
		}
	}

	if _, err := RunWorker(context.Background(), WorkerConfig{
		URL: srv.URL, Name: "w", Parallelism: 1, Poll: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	<-c.Done()

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"bba_coord_workers_joined_total 1",
		"bba_coord_shards_completed_total 2",
		"bba_coord_shards_done 2",
		"# TYPE bba_coord_leases_granted_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if resp, err := http.Get(srv.URL + "/report"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("/report after completion: %s, want 200", resp.Status)
		}
	}
}
