package collect

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/archive"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/netem"
	"bba/internal/player"
	"bba/internal/stats"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// lossDupTransport manufactures the three pathologies of a lossy
// at-least-once path deterministically:
//
//   - request n of its shared count (from 0, re-sends included) fails at the
//     edge when a hash of (99, n) falls below faults.AttemptFailProb, with a
//     synthesized 503 that never reaches the collector (loss),
//   - every dupEvery-th acknowledged ingest is re-sent once (duplicate
//     delivery on the wire), and
//   - every loseAckEvery-th acknowledged ingest has its acknowledgement
//     replaced by a synthesized 503 — the server processed the frame but
//     the client must assume it didn't, so the retry is a duplicate too.
type lossDupTransport struct {
	base            http.RoundTripper
	dupEvery        int64
	loseAckEvery    int64
	requests, acked atomic.Int64
}

// unavailable is a 503 synthesized on the shipper's side of the wire.
func unavailable(req *http.Request) *http.Response {
	return &http.Response{
		Status: "503 Service Unavailable", StatusCode: http.StatusServiceUnavailable,
		Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1,
		Header: http.Header{}, Body: io.NopCloser(bytes.NewReader(nil)),
		Request: req,
	}
}

// send is the edge: it fails request n of the count by its hash alone, so
// the same request order meets the same losses however fast the machine
// runs, and passes the rest to base.
func (t *lossDupTransport) send(req *http.Request) (*http.Response, error) {
	n := t.requests.Add(1) - 1
	if h := stats.Mix(stats.SplitMix64(99), uint64(faults.ServerError), uint64(n)); float64(h>>11)/(1<<53) < faults.AttemptFailProb {
		if req.Body != nil {
			req.Body.Close()
		}
		return unavailable(req), nil
	}
	return t.base.RoundTrip(req)
}

func (t *lossDupTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.send(req)
	if err != nil || resp.StatusCode >= 300 || req.URL.Path != "/ingest" {
		return resp, err
	}
	n := t.acked.Add(1)
	if n%t.dupEvery == 0 && req.GetBody != nil {
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

// hostileClient is the collection path the acceptance tests ship through:
// every connection netem-shaped, ~90% of attempts failed at the edge for
// the whole run, and the duplicate and lost-ack layer above it.
func hostileClient(t *testing.T) *http.Client {
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
	t.Cleanup(shaped.CloseIdleConnections)
	return &http.Client{
		Transport: &lossDupTransport{base: shaped, dupEvery: 2, loseAckEvery: 5},
		Timeout:   10 * time.Second,
	}
}

// shipHostile runs hostileSessions simulated players, each sealing a frame
// every hostileBatch events.
const (
	hostileSessions = 6
	hostileBatch    = 16
)

// playHostile plays simulated session i into obs. It is deterministic: a
// second play emits the same events.
func playHostile(i int, obs telemetry.Observer) error {
	algorithms := abr.Names()
	alg, err := abr.New(algorithms[i%len(algorithms)])
	if err != nil {
		return err
	}
	video, err := media.NewVBR(media.VBRConfig{Title: "e2e", Ladder: media.DefaultLadder(), NumChunks: 60}, rand.New(rand.NewSource(int64(i))))
	if err != nil {
		return err
	}
	_, err = player.Run(player.Config{
		Algorithm: alg,
		Stream:    abr.NewStream(video, 0),
		Trace:     trace.Step(4*units.Mbps, 150*units.Kbps, time.Minute, 2*time.Hour),
		Observer:  obs,
	})
	return err
}

// shipHostile plays hostileSessions simulated sessions at once, each with
// its own shipper as Observer (teed into a local capture), through
// hostileClient into a collector backed by a real archive.Store. It
// returns, per session label, the sorted journal lines the session emitted
// and the sorted lines the store exports: the sessions' batches interleave
// in the store, each session's lines may not change.
func shipHostile(t *testing.T) (local, archived map[string][]string) {
	t.Helper()
	store, err := archive.Open(archive.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	collector := NewCollector(CollectorConfig{Archive: store})
	srv := httptest.NewServer(collector.Handler())
	defer srv.Close()
	client := hostileClient(t)

	var (
		wg       sync.WaitGroup
		captures [hostileSessions]telemetry.Capture
		shippers [hostileSessions]*Shipper
	)
	for i := range shippers {
		// The queue holds a whole session's frames, so a virtual-time
		// session that outruns senders stuck in retries cannot overflow
		// it: a drop below is the pipeline's doing, not the bound's.
		frames := 0
		if err := playHostile(i, telemetry.Func(func(telemetry.Event) { frames++ })); err != nil {
			t.Fatal(err)
		}
		shippers[i], err = NewShipper(ShipperConfig{
			Addr: srv.URL, Run: "e2e", Session: uint64(i + 1),
			BatchEvents: hostileBatch, FlushInterval: -1,
			Queue:      QueueConfig{MemFrames: (frames + hostileBatch - 1) / hostileBatch},
			Retry:      RetryPolicy{MaxAttempts: 400, Base: 200 * time.Microsecond, Cap: 2 * time.Millisecond, Seed: int64(7 + i)},
			HTTPClient: client,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Stamped before the tee: both copies carry the same bytes.
			err := playHostile(i, telemetry.Stamp{
				Session: fmt.Sprintf("e2e.s%d", i),
				Next:    telemetry.Multi(&captures[i], shippers[i]),
			})
			if err != nil {
				t.Error(err)
			}
			if err := shippers[i].Close(); err != nil {
				t.Errorf("close shipper %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()

	// The path must actually have been hostile: retries prove loss,
	// duplicate frames prove at-least-once delivery happened — and nothing
	// may have been given up on.
	var retries, frames int64
	for i, s := range shippers {
		ss := s.Stats()
		if ss.FramesDropped != 0 || ss.EventsDropped != 0 || ss.Queue.Dropped != 0 {
			t.Fatalf("shipper %d lost data despite its retry budget: %+v", i, ss)
		}
		if ss.Events != int64(len(captures[i].Events)) {
			t.Fatalf("shipper %d saw %d events, the capture %d", i, ss.Events, len(captures[i].Events))
		}
		if ss.Queue.Pushed != int64(cap(s.frames)) {
			t.Fatalf("shipper %d queued %d frames, its queue was sized to the session's %d", i, ss.Queue.Pushed, cap(s.frames))
		}
		retries += ss.Retries
		frames += ss.FramesShipped
	}
	if retries == 0 {
		t.Fatal("no retries — fault injection did not engage")
	}
	cs := collector.Stats()
	if cs.FramesDup == 0 {
		t.Fatalf("no duplicate deliveries — dup injection did not engage: %+v", cs)
	}
	if cs.Frames["events"] != frames || cs.Streams != hostileSessions || cs.FramesBad != 0 || cs.ArchiveErrors != 0 {
		t.Fatalf("collector stats %+v, want %d frames over %d streams", cs, frames, hostileSessions)
	}

	local = make(map[string][]string)
	for i := range captures {
		for _, e := range captures[i].Events {
			local[e.Session] = append(local[e.Session], string(telemetry.AppendJSONL(nil, e)))
		}
	}
	var export bytes.Buffer
	if err := store.Export("e2e", &export); err != nil {
		t.Fatal(err)
	}
	archived = make(map[string][]string)
	for _, line := range bytes.SplitAfter(export.Bytes(), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		e, ok := telemetry.ParseJSONL(line)
		if !ok {
			t.Fatalf("store exported a line that is not journal JSONL: %q", line)
		}
		archived[e.Session] = append(archived[e.Session], string(line))
	}
	for _, m := range []map[string][]string{local, archived} {
		for _, lines := range m {
			sort.Strings(lines)
		}
	}
	return local, archived
}

// TestShipCollectDeterminism is the pipeline's acceptance test, pinned in
// CI under -race: sessions shipped through a netem-shaped loopback path
// with injected loss (edge 503s) and duplication (re-sent frames, lost
// acks) must leave the archive holding every journal line each session
// emitted exactly once.
func TestShipCollectDeterminism(t *testing.T) {
	local, archived := shipHostile(t)
	if len(local) != hostileSessions {
		t.Fatalf("%d sessions captured, want %d", len(local), hostileSessions)
	}
	for session, want := range local {
		if len(want) < 100 {
			t.Errorf("%s emitted only %d events; the session is too short to test", session, len(want))
		}
		if got := archived[session]; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: archive holds %d lines, the session emitted %d (or their bytes differ)", session, len(got), len(want))
		}
	}
	if len(archived) != len(local) {
		t.Errorf("archive holds %d sessions, want %d", len(archived), len(local))
	}
}

// TestShipCollectRepeatable re-runs the hostile shipment against a fresh
// collector and store and expects the same archive contents — same seeds,
// same lines, however the sessions interleave.
func TestShipCollectRepeatable(t *testing.T) {
	_, a := shipHostile(t)
	_, b := shipHostile(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two hostile shipments of the same sessions left different archives")
	}
}
