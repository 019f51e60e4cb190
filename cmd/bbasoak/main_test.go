package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bba/internal/soak"
	"bba/internal/telemetry"
)

// TestSoakOneShot runs the one-shot gate end to end: two short faulted
// cycles (a 3 s watch at 250 ms chunks leaves room for a fail-back streak,
// so failover is decided and the gate can pass), metrics endpoint live
// while the daemon runs, journal on disk after it exits.
func TestSoakOneShot(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "soak.jsonl")
	ready := make(chan string, 1)
	cfg := soakConfig{
		cycles:      2,
		interval:    0,
		metricsAddr: "127.0.0.1:0",
		journal:     journal,
		ready:       ready,
		soak: soak.Config{
			Sessions:   2,
			Seed:       21,
			Watch:      3 * time.Second,
			ChunkMS:    250,
			ShapeKbps:  20000,
			Algorithms: []string{"BBA-0", "Control"},
		},
	}

	done := make(chan error, 1)
	probed := make(chan error, 1)
	go func() {
		addr := <-ready
		probed <- probeEndpoints(addr)
	}()
	go func() { done <- runSoak(context.Background(), cfg) }()

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("runSoak: %v", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("soak one-shot did not finish")
	}
	if err := <-probed; err != nil {
		t.Fatalf("metrics endpoints: %v", err)
	}

	// The journal holds the daemon's own soak_cycle verdicts.
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	cyclesSeen := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		e, ok := telemetry.ParseJSONL([]byte(line + "\n")) // strict parse wants the full canonical line
		if !ok {
			t.Fatalf("journal line does not parse: %q", line)
		}
		if e.Kind == telemetry.SoakCycle {
			cyclesSeen++
			if e.Label != "pass" {
				t.Errorf("cycle %d verdict %q, want pass", e.Chunk, e.Label)
			}
		}
	}
	if cyclesSeen != 2 {
		t.Errorf("journal records %d cycles, want 2", cyclesSeen)
	}
}

// probeEndpoints hits /healthz and /metrics while the daemon runs.
func probeEndpoints(addr string) error {
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			return err
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, body)
		}
		if path == "/metrics" && !strings.Contains(string(body), "soak_cycles_total") {
			return fmt.Errorf("/metrics missing soak_cycles_total:\n%s", body)
		}
	}
	return nil
}

// TestSoakOneShotFailureExitsNonZero runs the gate with an algorithm no
// registry holds: every session fails to start, every cycle fails, and
// runSoak must return an error.
func TestSoakOneShotFailureExitsNonZero(t *testing.T) {
	cfg := soakConfig{
		cycles:      1,
		metricsAddr: "",
		soak: soak.Config{
			Sessions:   1,
			Watch:      time.Second,
			Algorithms: []string{"no-such-algorithm"},
		},
	}
	err := runSoak(context.Background(), cfg)
	if err == nil || !strings.Contains(err.Error(), "violated invariants") {
		t.Fatalf("runSoak = %v, want invariant-violation error", err)
	}
}

// TestSoakOneShotUndecidedExitsNonZero: a watch window too short to leave a
// fail-back streak after the fault horizon makes every session skip the
// failover invariant; a gate that ran with faults on and never decided it
// must say so instead of exiting 0.
func TestSoakOneShotUndecidedExitsNonZero(t *testing.T) {
	err := runSoak(context.Background(), soakConfig{
		cycles: 1,
		soak:   soak.Config{Sessions: 2, Seed: 7, Watch: 2 * time.Second, Algorithms: []string{"BBA-2", "Control"}},
	})
	if err == nil || !strings.Contains(err.Error(), "failover_converges: never decided") {
		t.Fatalf("runSoak = %v, want the undecided invariant named", err)
	}
}

func TestSplitAlgs(t *testing.T) {
	if got := splitAlgs(""); got != nil {
		t.Fatalf("splitAlgs(\"\") = %v, want nil", got)
	}
	got := splitAlgs("BBA-1, BBA-2 ,,BOLA")
	want := []string{"BBA-1", "BBA-2", "BOLA"}
	if len(got) != len(want) {
		t.Fatalf("splitAlgs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitAlgs = %v, want %v", got, want)
		}
	}
}
