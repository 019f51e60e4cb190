package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bba/internal/campaign"
	"bba/internal/coord"
)

func testDaemonOpts(sessions int, dir string) options {
	return options{
		addr: "127.0.0.1:0",
		coord: coord.Config{
			Spec:           campaign.Identity{Seed: 11, Sessions: sessions, ShardSize: 8, Days: 3, SketchSize: 64},
			LeaseShards:    2,
			CheckpointPath: filepath.Join(dir, "coord-cp.json"),
		},
		sweepEvery: 10 * time.Millisecond,
		drain:      50 * time.Millisecond,
		report:     filepath.Join(dir, "report.json"),
	}
}

// wantReport computes the canonical single-process report for the daemon's
// campaign flags.
func wantReport(t *testing.T, o options) []byte {
	t.Helper()
	cfg, err := o.coord.Spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	out, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := out.Report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDaemonEndToEnd boots the daemon on an ephemeral port, drives the
// campaign with an in-process worker, and checks the daemon exits zero
// with the report file byte-identical to a local run.
func TestDaemonEndToEnd(t *testing.T) {
	dir := t.TempDir()
	o := testDaemonOpts(24, dir)
	want := wantReport(t, o)

	ready := make(chan string, 1)
	o.ready = ready
	var out, errw bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(context.Background(), &out, &errw, o) }()
	addr := <-ready

	if _, err := coord.RunWorker(context.Background(), coord.WorkerConfig{
		URL:         "http://" + addr,
		Name:        "daemon-test",
		Parallelism: 2,
		Poll:        5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("daemon exited with error: %v\nstderr: %s", err, errw.String())
	}

	got, err := os.ReadFile(o.report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("daemon report differs from local run")
	}
	if !strings.Contains(out.String(), "coordinating on http://") {
		t.Errorf("stdout missing listen line: %q", out.String())
	}
	if !strings.Contains(errw.String(), "shards folded") {
		t.Errorf("stderr missing coordinator summary: %q", errw.String())
	}
	// The completion checkpoint is on disk and resumable in principle.
	cp, err := campaign.LoadCheckpoint(o.coord.CheckpointPath)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Complete() {
		t.Error("daemon's final checkpoint incomplete")
	}
}

// TestDaemonInterruptResume kills the daemon mid-campaign and restarts it
// from its checkpoint: the interrupted invocation must exit non-zero with
// a saved checkpoint, and the resumed one must finish with the canonical
// report.
func TestDaemonInterruptResume(t *testing.T) {
	dir := t.TempDir()
	o := testDaemonOpts(48, dir)
	o.coord.CheckpointEvery = 1
	want := wantReport(t, o)

	ready := make(chan string, 1)
	o.ready = ready
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out, errw bytes.Buffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, &out, &errw, o) }()
	addr := <-ready

	// Run one lease's worth of shards, then stop the daemon.
	client := &coord.Client{URL: "http://" + addr, Worker: "partial"}
	join, err := client.Join(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ccfg, err := join.Identity.Config()
	if err != nil {
		t.Fatal(err)
	}
	runner, err := campaign.NewShardRunner(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	grant, err := client.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range grant.Shards {
		accums, err := runner.RunShard(context.Background(), s)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := client.Complete(context.Background(), grant.Lease, s, accums); err != nil {
			t.Fatal(err)
		}
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("interrupted daemon exited zero")
	}
	if !strings.Contains(errw.String(), "checkpoint saved") {
		t.Errorf("interrupted daemon did not report the saved checkpoint: %q", errw.String())
	}

	// Restart with the same flags; a worker finishes the rest.
	ready2 := make(chan string, 1)
	o2 := o
	o2.ready = ready2
	var out2, errw2 bytes.Buffer
	done2 := make(chan error, 1)
	go func() { done2 <- run(context.Background(), &out2, &errw2, o2) }()
	addr2 := <-ready2
	if _, err := coord.RunWorker(context.Background(), coord.WorkerConfig{
		URL:         "http://" + addr2,
		Name:        "finisher",
		Parallelism: 2,
		Poll:        5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := <-done2; err != nil {
		t.Fatalf("resumed daemon exited with error: %v\nstderr: %s", err, errw2.String())
	}
	if !strings.Contains(errw2.String(), "resuming from") {
		t.Errorf("resumed daemon did not load the checkpoint: %q", errw2.String())
	}
	got, err := os.ReadFile(o.report)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("resumed daemon report differs from local run")
	}
}
