package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"bba/internal/campaign"
	"bba/internal/coord"
)

// TestWorkerMode runs the worker subcommand against an in-process
// coordinator: the worker prints its lease/throughput stats, writes no
// report of its own, and the coordinator's report is byte-identical to the
// plain CLI run of the same campaign.
func TestWorkerMode(t *testing.T) {
	want := mustRun(t, tiny("run", 24))

	c, err := coord.New(coord.Config{
		Spec:        campaign.Identity{Seed: 11, Sessions: 24, ShardSize: 8, Days: 3, SketchSize: 64},
		LeaseShards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	var out, errw bytes.Buffer
	args := []string{"worker", "-coord", srv.URL, "-worker-name", "cli-worker", "-workers", "2", "-progress-every", "1ns"}
	if err := cli(context.Background(), args, &out, &errw); err != nil {
		t.Fatalf("worker run: %v\nstderr: %s", err, errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("worker wrote to stdout (the report is the coordinator's): %q", out.String())
	}
	for _, s := range []string{"worker: joined", "lease", "sessions/s (engine=scalar)"} {
		if !strings.Contains(errw.String(), s) {
			t.Errorf("worker stderr missing %q: %q", s, errw.String())
		}
	}

	select {
	case <-c.Done():
	default:
		t.Fatal("coordinator incomplete after CLI worker exit")
	}
	got, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("fleet report differs from plain CLI run")
	}
}

// fleetReport runs the campaign id describes on an in-process coordinator,
// executed by n concurrent `worker` CLI runs, and returns the
// coordinator's report.
func fleetReport(t *testing.T, id campaign.Identity, n int) []byte {
	t.Helper()
	c, err := coord.New(coord.Config{Spec: id, LeaseShards: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	errs := make([]error, n)
	stderr := make([]bytes.Buffer, n)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			args := []string{"worker", "-coord", srv.URL, "-worker-name", fmt.Sprintf("w%d", i), "-workers", "1", "-progress-every", "0"}
			errs[i] = cli(context.Background(), args, new(bytes.Buffer), &stderr[i])
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v\nstderr: %s", i, err, stderr[i].String())
		}
	}
	got, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	return got
}
