package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
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
