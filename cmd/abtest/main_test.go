package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"bba/internal/campaign"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "quick", "", "", true, false, false, false, false); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig07RebufferRateBBA0", "Figure 18", "SharedLinkFairness"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestSingleFigure(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "quick", "Fig10VBRChunkSizes", "", false, false, false, false, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "max-to-average ratio") {
		t.Error("figure notes missing")
	}
}

func TestBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "enormous", "", "", false, false, false, false, false); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := run(context.Background(), &out, "quick", "Fig99", "", false, false, false, false, false); err == nil {
		t.Error("unknown figure accepted")
	}
}

// TestWeekendGolden pins the weekend experiment's bytes across the move from
// the abtest runner onto the campaign: the sha256 of quick-scale `abtest
// -csv` and `abtest -faults` stdout, taken with the old runner.
func TestWeekendGolden(t *testing.T) {
	for _, tc := range []struct {
		name           string
		csvOut, faults bool
		want           string
	}{
		{"csv", true, false, "0ca1b08689b186d9b811d7f1be15ad3d7bd28682aa2d6e9694c0900edb2a7db0"},
		{"faults", false, true, "48ea5d3ccf1cb17afe49938d57392717d04028a3b198a21963aa37bb9ed381da"},
	} {
		var out bytes.Buffer
		if err := run(context.Background(), &out, "quick", "", "", false, false, tc.csvOut, tc.faults, false); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != tc.want {
			t.Errorf("abtest -%s: sha256 %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestStreamAgg pins the -stream-agg path: the weekend experiment run as a
// plain campaign, emitting its report's per-group JSON with no raw session
// retention.
func TestStreamAgg(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "quick", "", "", false, false, false, false, true); err != nil {
		t.Fatal(err)
	}
	var reports []campaign.GroupReport
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatalf("stream-agg output is not a JSON group report: %v", err)
	}
	if len(reports) == 0 {
		t.Fatal("stream-agg emitted no groups")
	}
	seen := map[string]bool{}
	for _, r := range reports {
		seen[r.Name] = true
		if r.Sessions == 0 {
			t.Errorf("group %s aggregated zero sessions", r.Name)
		}
		if r.AvgRateKbps.N != r.Sessions {
			t.Errorf("group %s: avg-rate samples %d != sessions %d", r.Name, r.AvgRateKbps.N, r.Sessions)
		}
	}
	if !seen["Control"] || !seen["BBA-2"] {
		t.Errorf("stream-agg groups incomplete: %v", seen)
	}
}

// TestStreamAggCustomGroups pins the -groups flag: any registered
// algorithms can stand in as the experiment arms, and an unknown name is
// rejected with the registry's enumerating error.
func TestStreamAggCustomGroups(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "quick", "", "BBA-2, BOLA", false, false, false, false, true); err != nil {
		t.Fatal(err)
	}
	var reports []campaign.GroupReport
	if err := json.Unmarshal(out.Bytes(), &reports); err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Name != "BBA-2" || reports[1].Name != "BOLA" {
		t.Errorf("custom arms: %+v", reports)
	}

	err := run(context.Background(), &out, "quick", "", "BBA-2,nope", false, false, false, false, true)
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown group: %v", err)
	}
}

// TestCanceledContext pins the SIGINT path: a canceled context must abort
// with a non-zero error even when the experiment cache can serve the
// outcome, and any output produced must carry the truncation marker — the
// regression was an interrupted run reporting exactly like a normal one.
func TestCanceledContext(t *testing.T) {
	// Populate the experiment cache first, so the canceled run below hits
	// the worst case: output fully available without touching the context.
	var warm bytes.Buffer
	if err := run(context.Background(), &warm, "quick", "", "", false, false, true, false, false); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := run(ctx, &out, "quick", "", "", false, false, true, false, false)
	if err == nil {
		t.Fatal("canceled run returned nil (would exit zero)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if out.Len() > 0 && !strings.Contains(out.String(), "# TRUNCATED") {
		t.Error("canceled run produced output without the truncation marker")
	}

	// The uncached path — dispatch surfaces the cancellation itself (a
	// different scale misses the warmed cache) — must carry the marker too.
	var cold bytes.Buffer
	err = run(ctx, &cold, "full", "", "", false, false, true, false, false)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("uncached canceled run: err = %v, want context.Canceled", err)
	}
	if !strings.Contains(cold.String(), "# TRUNCATED") {
		t.Error("uncached canceled run lacks the truncation marker")
	}
}
