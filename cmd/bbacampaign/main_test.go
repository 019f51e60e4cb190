package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bba/internal/campaign"
	"bba/internal/collect"
	"bba/internal/obs"
)

func testOpts(sessions int) options {
	return options{
		sessions:        sessions,
		shardSize:       8,
		days:            3,
		seed:            11,
		workers:         2,
		sketch:          64,
		stripes:         1,
		checkpointEvery: 1,
		progressEvery:   time.Nanosecond, // print every shard
	}
}

// TestEndToEndReport runs a tiny campaign through the CLI path and checks
// the report and the progress stream.
func TestEndToEndReport(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, testOpts(24)); err != nil {
		t.Fatal(err)
	}
	var rep campaign.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Truncated {
		t.Error("complete run reported truncated")
	}
	if rep.Sessions != 24 {
		t.Errorf("report covers %d sessions, want 24", rep.Sessions)
	}
	if !strings.Contains(errw.String(), "eta") || !strings.Contains(errw.String(), "sessions/s") {
		t.Errorf("progress stream missing throughput/ETA: %q", errw.String())
	}
}

// TestCustomAlgos pins the -algos flag: any registered algorithms can form
// the campaign arms, and an unknown name fails with the registry's
// enumerating error before any session runs.
func TestCustomAlgos(t *testing.T) {
	o := testOpts(16)
	o.algos = "BBA-2, BOLA ,SmoothThroughput"
	var out, errw bytes.Buffer
	if err := run(context.Background(), &out, &errw, o); err != nil {
		t.Fatal(err)
	}
	var rep campaign.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 3 || rep.Groups[0].Name != "BBA-2" || rep.Groups[1].Name != "BOLA" {
		t.Errorf("arms: %+v", rep.Groups)
	}

	o.algos = "BBA-2,nope"
	err := run(context.Background(), &out, &errw, o)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown algorithm: %v", err)
	}
}

// TestStripesAndMerge runs each stripe as its own CLI invocation, merges
// the checkpoints with -merge, and compares against the unsharded report.
func TestStripesAndMerge(t *testing.T) {
	var want bytes.Buffer
	o := testOpts(40)
	o.progressEvery = 0
	if err := run(context.Background(), &want, new(bytes.Buffer), o); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	var paths []string
	for stripe := 0; stripe < 2; stripe++ {
		so := o
		so.stripes, so.stripe = 2, stripe
		so.checkpoint = filepath.Join(dir, "cp"+string(rune('0'+stripe))+".json")
		paths = append(paths, so.checkpoint)
		var out, errw bytes.Buffer
		if err := run(context.Background(), &out, &errw, so); err != nil {
			t.Fatalf("stripe %d: %v", stripe, err)
		}
		if out.Len() != 0 {
			t.Errorf("stripe %d wrote a report on its own", stripe)
		}
	}

	var got bytes.Buffer
	mo := o
	mo.merge = strings.Join(paths, ",")
	if err := run(context.Background(), &got, new(bytes.Buffer), mo); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("merged stripe report differs from unsharded report")
	}
}

// TestShipRemoteAggregation runs the CLI with -ship against a live
// collector and checks the emitted report is the remote aggregation,
// byte-identical to a plain local run.
func TestShipRemoteAggregation(t *testing.T) {
	o := testOpts(24)
	o.progressEvery = 0

	var want bytes.Buffer
	if err := run(context.Background(), &want, new(bytes.Buffer), o); err != nil {
		t.Fatal(err)
	}

	c := collect.NewCollector(collect.CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var out, errw bytes.Buffer
	so := o
	so.ship = srv.URL
	so.runID = "cli-ship"
	if err := run(context.Background(), &out, &errw, so); err != nil {
		t.Fatalf("shipped run: %v\nstderr: %s", err, errw.String())
	}
	if !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Error("shipped report differs from local report")
	}
	for _, s := range []string{"shipping run", "remote aggregation verified"} {
		if !strings.Contains(errw.String(), s) {
			t.Errorf("stderr missing %q: %q", s, errw.String())
		}
	}
	if cs := c.Stats(); cs.RunsEnded != 1 || cs.Shards == 0 {
		t.Errorf("collector stats %+v", cs)
	}
}

// TestShipFlagConflicts pins the modes -ship cannot combine with.
func TestShipFlagConflicts(t *testing.T) {
	base := testOpts(8)
	base.progressEvery = 0

	o := base
	o.ship = "http://127.0.0.1:1"
	o.merge = "x.json"
	if err := run(context.Background(), new(bytes.Buffer), new(bytes.Buffer), o); err == nil {
		t.Error("-ship with -merge accepted")
	}

	o = base
	o.ship = "http://127.0.0.1:1"
	o.stripes = 2
	if err := run(context.Background(), new(bytes.Buffer), new(bytes.Buffer), o); err == nil {
		t.Error("-ship with stripes accepted")
	}

	o = base
	o.ship = "udp://127.0.0.1:1"
	if err := run(context.Background(), new(bytes.Buffer), new(bytes.Buffer), o); err == nil {
		t.Error("-ship over udp accepted (report fetch needs HTTP)")
	}

	// A resumable checkpoint on disk conflicts with shipping: its shards
	// would never reach the collector.
	o = base
	o.checkpoint = filepath.Join(t.TempDir(), "cp.json")
	if err := run(context.Background(), new(bytes.Buffer), new(bytes.Buffer), o); err != nil {
		t.Fatal(err)
	}
	o.ship = "http://127.0.0.1:1"
	err := run(context.Background(), new(bytes.Buffer), new(bytes.Buffer), o)
	if err == nil || !strings.Contains(err.Error(), "resumed") {
		t.Errorf("-ship with a resumable checkpoint: %v", err)
	}
}

// TestInterruptResume cancels a run mid-campaign, then resumes it from the
// checkpoint via the same CLI path: the cancelled invocation must fail with
// a truncated report, and the resumed one must finish with the same report
// an uninterrupted run produces.
func TestInterruptResume(t *testing.T) {
	o := testOpts(40)
	o.progressEvery = 0

	var want bytes.Buffer
	if err := run(context.Background(), &want, new(bytes.Buffer), o); err != nil {
		t.Fatal(err)
	}

	o.checkpoint = filepath.Join(t.TempDir(), "cp.json")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shards := 0
	// Cancel from the progress stream after two shards, as a SIGINT would.
	o.progressHook = func(campaign.Progress) {
		if shards++; shards == 2 {
			cancel()
		}
	}
	var out, errw bytes.Buffer
	err := run(ctx, &out, &errw, o)
	if err == nil {
		t.Fatal("interrupted run returned nil error (must exit non-zero)")
	}
	var trunc campaign.Report
	if jerr := json.Unmarshal(out.Bytes(), &trunc); jerr != nil {
		t.Fatalf("interrupted run wrote no truncated report: %v", jerr)
	}
	if !trunc.Truncated {
		t.Error("interrupted run's report not marked truncated")
	}
	if !strings.Contains(errw.String(), "resume") {
		t.Errorf("stderr does not mention resuming: %q", errw.String())
	}

	o.progressHook = nil
	var resumed, errw2 bytes.Buffer
	if err := run(context.Background(), &resumed, &errw2, o); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw2.String(), "resuming from") {
		t.Errorf("resume did not load the checkpoint: %q", errw2.String())
	}
	if !bytes.Equal(resumed.Bytes(), want.Bytes()) {
		t.Error("resumed report differs from uninterrupted report")
	}
}

// TestSIGTERMWritesCheckpoint sends the process a real SIGTERM mid-campaign
// under obs.Main, the way main runs: a plain kill must take the same
// cancel path as Ctrl-C — non-zero exit, resumable checkpoint on disk —
// rather than ending the process with the shards since the last periodic
// write lost.
func TestSIGTERMWritesCheckpoint(t *testing.T) {
	o := testOpts(40)
	o.progressEvery = 0
	o.checkpointEvery = 1 << 20 // only the on-cancel write can produce the file
	o.checkpoint = filepath.Join(t.TempDir(), "cp.json")
	var runErr error
	var errw bytes.Buffer
	obs.Main("bbacampaign", func(ctx context.Context) error {
		shards := 0
		o.progressHook = func(campaign.Progress) {
			if shards++; shards == 2 {
				if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
					t.Error(err)
				}
				<-ctx.Done() // signal delivery is asynchronous; hold the fold until it lands
			}
		}
		runErr = run(ctx, new(bytes.Buffer), &errw, o)
		return nil // the exit code is main's business; the error is checked here
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("run under SIGTERM = %v, want a context.Canceled interruption", runErr)
	}
	cp, err := campaign.LoadCheckpoint(o.checkpoint)
	if err != nil {
		t.Fatalf("no resumable checkpoint after SIGTERM: %v\nstderr: %s", err, errw.String())
	}
	if cp.CompletedShards() < 2 || cp.Complete() {
		t.Errorf("checkpoint holds %d shards (complete=%v), want a partial run of at least 2", cp.CompletedShards(), cp.Complete())
	}
}
