package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bba/internal/abr"
	archivepkg "bba/internal/archive"
	"bba/internal/collect"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// startDaemon runs the daemon on an ephemeral port and returns its bound
// HTTP address plus a shutdown func that drains and returns its error and
// output.
func startDaemon(t *testing.T, o options) (httpAddr string, shutdown func() (error, string, string)) {
	t.Helper()
	ready := make(chan string, 1)
	o.ready = ready
	ctx, cancel := context.WithCancel(context.Background())
	var out, errw bytes.Buffer
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, &out, &errw, o) }()
	select {
	case httpAddr = <-ready:
	case err := <-errc:
		cancel()
		t.Fatalf("daemon exited before serving: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return httpAddr, func() (error, string, string) {
		cancel()
		select {
		case err := <-errc:
			return err, out.String(), errw.String()
		case <-time.After(15 * time.Second):
			t.Fatal("daemon did not drain")
			return nil, "", ""
		}
	}
}

// resendFirst delivers the first acknowledged /ingest request a second time:
// the duplicate frame an at-least-once sender produces. It keeps that
// frame, for a re-send after a restart.
type resendFirst struct {
	sent  atomic.Bool
	frame []byte
}

func (d *resendFirst) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusNoContent && req.URL.Path == "/ingest" && d.sent.CompareAndSwap(false, true) {
		body, berr := req.GetBody()
		if berr == nil {
			d.frame, berr = io.ReadAll(body)
		}
		if berr == nil {
			body, berr = req.GetBody()
		}
		if berr != nil {
			return nil, berr
		}
		again := req.Clone(req.Context())
		again.Body = body
		dup, derr := http.DefaultTransport.RoundTrip(again)
		if derr != nil {
			return nil, derr
		}
		dup.Body.Close()
	}
	return resp, err
}

// TestDaemonEndToEnd drives the full daemon lifecycle with real session
// events, shipped the way bbaplay -journal http://… ships them: two players,
// each a simulated session whose Observer is its own shipper, teed into a
// local capture; one frame delivered twice. /query, /tail, the live store
// and — after the drain — an offline read-only open must each reproduce the
// local journal byte for byte. A second daemon started over the drained
// store is sent a frame the first one ACKed, as a shipper re-sends one whose
// 204 a restart lost: it is a duplicate, and the store still exports the
// local journal.
func TestDaemonEndToEnd(t *testing.T) {
	store := filepath.Join(t.TempDir(), "fleet.archive")
	httpAddr, shutdown := startDaemon(t, options{
		addr: "127.0.0.1:0", store: store, grace: 5 * time.Second,
	})
	base := "http://" + httpAddr
	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s %v: %s", path, resp.Status, err, body)
		}
		return body
	}

	tail, err := http.Get(base + "/tail?run=fleet")
	if err != nil {
		t.Fatal(err)
	}
	defer tail.Body.Close()

	// The players ship one after the other on one in-order sender each, so
	// admission order is emission order and the whole run compares as bytes.
	var (
		local     []byte // the run's journal: every emitted event, canonically encoded
		bySession = map[string][]byte{}
		events    int
		resend    = new(resendFirst)
		client    = &http.Client{Transport: resend, Timeout: 10 * time.Second}
	)
	for i, name := range []string{"BBA-2", "Control"} {
		alg, err := abr.New(name)
		if err != nil {
			t.Fatal(err)
		}
		video, err := media.NewVBR(media.VBRConfig{Title: "daemon", Ladder: media.DefaultLadder(), NumChunks: 120}, rand.New(rand.NewSource(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		shipper, err := collect.NewShipper(collect.ShipperConfig{
			Addr: base, Run: "fleet", Session: uint64(i + 1),
			HTTPClient: client,
		})
		if err != nil {
			t.Fatal(err)
		}
		session := fmt.Sprintf("player%d.%s", i, name)
		_, err = player.Run(player.Config{
			Algorithm: alg,
			Stream:    abr.NewStream(video, 0),
			Trace:     trace.Step(4*units.Mbps, 150*units.Kbps, time.Minute, 2*time.Hour),
			Observer: telemetry.Func(func(e telemetry.Event) {
				e.Session = session
				line := telemetry.AppendJSONL(nil, e)
				local = append(local, line...)
				bySession[session] = append(bySession[session], line...)
				events++
				shipper.OnEvent(e)
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := shipper.Close(); err != nil {
			t.Fatalf("close shipper %d: %v", i, err)
		}
		if ss := shipper.Stats(); ss.EventsDropped != 0 || ss.FramesDropped != 0 {
			t.Fatalf("shipper %d dropped data: %+v", i, ss)
		}
	}
	if events < 100 || !bytes.Contains(local, []byte(`"kind":"rebuffer_start"`)) {
		t.Fatalf("only %d events and maybe no rebuffer; the sessions are too tame to mean anything", events)
	}

	// Everything is counted once on /metrics, the re-delivery as a duplicate;
	// the store's families follow the collector's: every admitted event is
	// in the WAL, and nothing has been compacted yet.
	metrics := string(get("/metrics"))
	for _, want := range []string{
		fmt.Sprintf("bba_collect_events_total %d\n", events),
		"bba_collect_frames_duplicate_total 1\n",
		"bba_collect_streams_total 2\n",
		fmt.Sprintf("bba_archive_wal_events %d\n", events),
		"bba_archive_compact_seconds_count 0\n",
		"bba_archive_sealed_bytes_total 0\n",
		"bba_archive_sealed_rows_total 0\n",
		"bba_archive_query_seconds_count 0\n",
		`bba_archive_query_blocks_total{outcome="read"} 0` + "\n",
		`bba_archive_query_blocks_total{outcome="pruned"} 0` + "\n",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
		}
	}

	// The columnar store answers queries while the daemon is live.
	if got := get("/query?run=fleet"); !bytes.Equal(got, local) {
		t.Fatalf("/query returned %d bytes, the local journal is %d (or they differ)", len(got), len(local))
	}
	for session, want := range bySession {
		if got := get("/query?run=fleet&session=" + session); !bytes.Equal(got, want) {
			t.Fatalf("/query for %s returned %d bytes, its local journal is %d (or they differ)", session, len(got), len(want))
		}
	}
	var rollup struct {
		Run    string `json:"run"`
		Groups []struct {
			Events int64 `json:"events"`
		} `json:"groups"`
	}
	if err := json.Unmarshal(get("/query?run=fleet&agg=1"), &rollup); err != nil {
		t.Fatal(err)
	}
	var rolled int64
	for _, g := range rollup.Groups {
		rolled += g.Events
	}
	if rollup.Run != "fleet" || rolled != int64(events) {
		t.Fatalf("live rollup %+v, want run fleet with %d events", rollup, events)
	}
	// Every one of those queries is timed; none had a block to read yet.
	if want := fmt.Sprintf("bba_archive_query_seconds_count %d\n", 2+len(bySession)); !strings.Contains(string(get("/metrics")), want) {
		t.Fatalf("/metrics lacks %q after the queries", want)
	}
	if runs := get("/runs"); !bytes.Contains(runs, []byte(`"run":"fleet"`)) {
		t.Fatalf("/runs missing run fleet: %s", runs)
	}

	// /tail streamed every admitted batch as it landed.
	tailed := make([]byte, len(local))
	if _, err := io.ReadFull(tail.Body, tailed); err != nil || !bytes.Equal(tailed, local) {
		t.Fatalf("/tail delivered something other than the local journal (%v)", err)
	}
	tail.Body.Close() // or the drain below waits out its grace on this stream

	// Persistence gates acknowledgement: every ACKed batch is already in
	// the store's WAL while the daemon is still running — a crash here (no
	// drain, no compaction) must not lose acknowledged events.
	export := func(when string) *archivepkg.Store {
		t.Helper()
		ro, err := archivepkg.OpenReadOnly(store)
		if err != nil {
			t.Fatal(err)
		}
		var exported bytes.Buffer
		if err := ro.Export("fleet", &exported); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(exported.Bytes(), local) {
			t.Fatalf("store %s exports %d bytes, the local journal is %d (or they differ)", when, exported.Len(), len(local))
		}
		return ro
	}
	export("before shutdown")

	err, stdout, stderr := shutdown()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	// bench/proc.go finds the daemon's address on its first stdout line.
	first, _, _ := strings.Cut(stdout, "\n")
	if !regexp.MustCompile(`^collecting on http://[0-9.]+:[0-9]+ `).MatchString(first) {
		t.Errorf("first stdout line %q does not carry http://host:port", first)
	}
	if !strings.Contains(stderr, "shutting down") || !strings.Contains(stderr, "collected:") {
		t.Errorf("stderr missing drain summary: %q", stderr)
	}

	// Shutdown compacted the store: the directory holds sealed blocks that
	// an offline reader (bbaquery -dir … -export) exports as the journal,
	// the duplicate delivery discarded.
	st := export("after shutdown").Stats()
	if len(st) != 1 || st[0].Blocks == 0 || st[0].WALEvents != 0 {
		t.Fatalf("store stats after shutdown: %+v, want one run fully compacted", st)
	}

	httpAddr, shutdown = startDaemon(t, options{addr: "127.0.0.1:0", store: store, grace: 5 * time.Second})
	base = "http://" + httpAddr
	resp, err := http.Post(base+"/ingest", "application/octet-stream", bytes.NewReader(resend.frame))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("the ACKed frame re-sent after the restart: %s, want 204", resp.Status)
	}
	if metrics := string(get("/metrics")); !strings.Contains(metrics, "bba_collect_frames_duplicate_total 1\n") || !strings.Contains(metrics, "bba_collect_events_total 0\n") {
		t.Fatalf("/metrics after the restart's re-send, want one duplicate and no event:\n%s", metrics)
	}
	if err, _, _ := shutdown(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	export("after the restart's re-send")
}

// TestDaemonTail checks /tail streams admitted batches live.
func TestDaemonTail(t *testing.T) {
	httpAddr, shutdown := startDaemon(t, options{
		addr: "127.0.0.1:0", grace: 5 * time.Second,
	})
	defer shutdown()

	req, err := http.NewRequest(http.MethodGet, "http://"+httpAddr+"/tail?run=d", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tail: %d", resp.StatusCode)
	}

	events := telemetry.AppendJSONL(nil, telemetry.Event{
		Kind: telemetry.BufferSample, Session: "s", Chunk: 7,
		RateIndex: -1, PrevRateIndex: -1, Buffer: 9 * time.Second,
	})
	// Another run's batch must be filtered out; run d's must arrive.
	for _, f := range []collect.Frame{
		{Run: "other", Session: 1, Seq: 0, Kind: collect.PayloadEvents, Payload: events},
		{Run: "d", Session: 1, Seq: 0, Kind: collect.PayloadEvents, Payload: events},
	} {
		post, err := http.Post("http://"+httpAddr+"/ingest", "application/octet-stream",
			bytes.NewReader(collect.AppendFrame(nil, f)))
		if err != nil {
			t.Fatal(err)
		}
		post.Body.Close()
		if post.StatusCode != http.StatusNoContent {
			t.Fatalf("ingest: %d", post.StatusCode)
		}
	}

	got := make([]byte, len(events))
	resp.Body.Read(got) // blocks until the daemon flushes the batch
	if !bytes.Equal(got, events) {
		t.Fatalf("tail delivered %q, want run d's batch %q", got, events)
	}
}

func TestDaemonBadAddr(t *testing.T) {
	err := run(context.Background(), new(bytes.Buffer), new(bytes.Buffer), options{addr: "127.0.0.1:-1"})
	if err == nil {
		t.Fatal("invalid address accepted")
	}
}
