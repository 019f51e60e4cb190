package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	archivepkg "bba/internal/archive"
	"bba/internal/campaign"
	"bba/internal/collect"
	"bba/internal/telemetry"
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

// TestDaemonEndToEnd drives the full daemon lifecycle: ingest a campaign's
// frames over HTTP (with a duplicate), an extra event batch from a second
// session, fetch the aggregated report, then drain on cancel and check the
// archive holds each admitted batch exactly once.
func TestDaemonEndToEnd(t *testing.T) {
	// Ground truth: the same campaign aggregated in-process, its shard
	// payloads captured as the shipper would send them.
	cfg := campaign.Config{
		Name: "daemon", Seed: 5, Sessions: 8, ShardSize: 8,
		Parallelism: 2, SketchSize: 32, CatalogSize: 4,
	}
	shardJSON := map[int][]byte{}
	cfg.OnShard = func(shard int, accums []*campaign.GroupAccum) error {
		p, err := json.Marshal(campaign.ShardAccums{Shard: shard, Groups: accums})
		if err != nil {
			return err
		}
		shardJSON[shard] = p
		return nil
	}
	local, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := local.Report.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	idJSON, err := json.Marshal(cfg.Identity())
	if err != nil {
		t.Fatal(err)
	}

	store := filepath.Join(t.TempDir(), "fleet.archive")
	httpAddr, shutdown := startDaemon(t, options{
		addr: "127.0.0.1:0", store: store, dedupWindow: collect.DefaultDedupWindow,
		grace: 5 * time.Second,
	})

	events := telemetry.AppendJSONL(nil, telemetry.Event{
		Kind: telemetry.BufferSample, Session: "s", Chunk: 1,
		RateIndex: -1, PrevRateIndex: -1, Buffer: 3 * time.Second,
	})
	frame := func(seq uint64, kind collect.PayloadKind, payload []byte) []byte {
		return collect.AppendFrame(nil, collect.Frame{Run: "d", Session: 1, Seq: seq, Kind: kind, Payload: payload})
	}
	post := func(body []byte, wantCode int) {
		t.Helper()
		resp, err := http.Post("http://"+httpAddr+"/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("ingest: got %d, want %d", resp.StatusCode, wantCode)
		}
	}
	post(frame(0, collect.PayloadRunStart, idJSON), http.StatusNoContent)
	ev := frame(1, collect.PayloadEvents, events)
	post(ev, http.StatusNoContent)
	post(ev, http.StatusNoContent) // duplicate: acknowledged, not double-counted
	post(frame(2, collect.PayloadShard, shardJSON[0]), http.StatusNoContent)
	post(frame(3, collect.PayloadRunEnd, nil), http.StatusNoContent)

	// A second session's batch lands beside the first's.
	post(collect.AppendFrame(nil, collect.Frame{Run: "d", Session: 2, Seq: 0, Kind: collect.PayloadEvents, Payload: events}), http.StatusNoContent)

	// Both batches are counted once on /metrics, then fetch the report.
	mresp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m bytes.Buffer
	m.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(m.String(), "bba_collect_events_total 2\n") {
		t.Fatalf("/metrics does not count two admitted events:\n%s", m.String())
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/report/d", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: %s: %s", resp.Status, got.String())
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("daemon report differs from local run:\n%s\nvs\n%s", got.String(), want.String())
	}

	// The columnar store answers queries while the daemon is live.
	qresp, err := http.Get(fmt.Sprintf("http://%s/query?run=d&agg=1", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	var rollup struct {
		Run    string `json:"run"`
		Groups []struct {
			Events int64 `json:"events"`
		} `json:"groups"`
	}
	if err := json.NewDecoder(qresp.Body).Decode(&rollup); err != nil {
		t.Fatal(err)
	}
	qresp.Body.Close()
	if qresp.StatusCode != http.StatusOK || rollup.Run != "d" || len(rollup.Groups) != 1 || rollup.Groups[0].Events != 2 {
		t.Fatalf("live rollup: %d %+v, want run d with 2 events", qresp.StatusCode, rollup)
	}
	eresp, err := http.Get(fmt.Sprintf("http://%s/query?run=d", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	var lines bytes.Buffer
	lines.ReadFrom(eresp.Body)
	eresp.Body.Close()
	if !bytes.Equal(lines.Bytes(), append(append([]byte(nil), events...), events...)) {
		t.Fatalf("live query events:\n%q\nwant both admitted batches", lines.Bytes())
	}
	rresp, err := http.Get(fmt.Sprintf("http://%s/runs", httpAddr))
	if err != nil {
		t.Fatal(err)
	}
	var runsBody bytes.Buffer
	runsBody.ReadFrom(rresp.Body)
	rresp.Body.Close()
	if !strings.Contains(runsBody.String(), `"run":"d"`) {
		t.Fatalf("/runs missing run d: %s", runsBody.String())
	}

	// Persistence gates acknowledgement: both ACKed batches are already
	// in the store's WAL while the daemon is still running — a crash here
	// (no drain, no compaction) must not lose acknowledged events.
	both := append(append([]byte(nil), events...), events...)
	live, err := archivepkg.OpenReadOnly(store)
	if err != nil {
		t.Fatal(err)
	}
	var liveExport bytes.Buffer
	if err := live.Export("d", &liveExport); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveExport.Bytes(), both) {
		t.Fatalf("store before shutdown:\n%q\nwant both acknowledged batches already on disk", liveExport.Bytes())
	}

	err, stdout, stderr := shutdown()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	if !strings.Contains(stdout, "collecting on http://") {
		t.Errorf("stdout missing listen line: %q", stdout)
	}
	if !strings.Contains(stderr, "shutting down") || !strings.Contains(stderr, "collected:") {
		t.Errorf("stderr missing drain summary: %q", stderr)
	}

	// Shutdown compacted the store: the directory holds sealed blocks a
	// read-only open exports as each admitted batch exactly once (the
	// duplicate delivery discarded).
	ro, err := archivepkg.OpenReadOnly(store)
	if err != nil {
		t.Fatal(err)
	}
	st := ro.Stats()
	if len(st) != 1 || st[0].Blocks == 0 || st[0].WALEvents != 0 {
		t.Fatalf("store stats after shutdown: %+v, want one run fully compacted", st)
	}
	var exported bytes.Buffer
	if err := ro.Export("d", &exported); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exported.Bytes(), both) {
		t.Fatalf("columnar export:\n%q\nwant two batches:\n%q", exported.Bytes(), both)
	}
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
