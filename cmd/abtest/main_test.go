package main

import (
	"bytes"
	"context"
	"errors"
	"io"
	"strings"
	"testing"

	"bba/internal/doccmd"
	"bba/internal/obs"
)

// abtest drives the binary from argv, the way main does under obs.Main.
func abtest(ctx context.Context, out io.Writer, args ...string) error {
	return cli(ctx, args, out, io.Discard)
}

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := abtest(context.Background(), &out, "-list"); err != nil {
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
	if err := abtest(context.Background(), &out, "-fig", "Fig10VBRChunkSizes"); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "max-to-average ratio") {
		t.Error("figure notes missing")
	}
}

// TestBadInputs also pins where the campaign-running modes went: -csv,
// -faults, -groups and -stream-agg are not abtest flags any more (the first
// three are `bbacampaign weekend`), so the parser refuses them as usage
// errors.
func TestBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := abtest(context.Background(), &out, "-scale", "enormous"); err == nil {
		t.Error("unknown scale accepted")
	}
	if err := abtest(context.Background(), &out, "-fig", "Fig99"); err == nil {
		t.Error("unknown figure accepted")
	}
	for _, gone := range [][]string{{"-csv"}, {"-faults"}, {"-groups", "BBA-2"}, {"-stream-agg"}, {"stray"}} {
		if err := abtest(context.Background(), &out, gone...); !errors.Is(err, obs.ErrUsage) {
			t.Errorf("abtest %v = %v, want a usage error", gone, err)
		}
	}
	if out.Len() != 0 {
		t.Errorf("rejected command lines wrote output: %q", out.String())
	}
}

// TestDocCommandLines: every `abtest …` command line quoted in README,
// DESIGN, EXPERIMENTS, the verify skill and the commands' own package
// comments parses against the real flag set, so a doc cannot quote a
// deleted flag (parse only; nothing runs).
func TestDocCommandLines(t *testing.T) {
	lines := doccmd.Lines(t, "../..", "abtest")
	if len(lines) == 0 {
		t.Fatal("no abtest command lines found in the docs; the extractor is broken")
	}
	for _, l := range lines {
		fs, _ := newFlags(io.Discard)
		if done, err := obs.Parse(fs, l.Args); done {
			t.Errorf("%s: `abtest %s`: %v", l.Where, strings.Join(l.Args, " "), err)
		}
	}
}

// TestCanceledContext pins the SIGINT path: a canceled context must abort
// with a non-zero error even when the experiment cache can serve the
// outcome, and any output produced must carry the truncation marker — the
// regression was an interrupted run reporting exactly like a normal one.
func TestCanceledContext(t *testing.T) {
	// Populate the experiment cache first, so the canceled run below hits
	// the worst case: output fully available without touching the context.
	const cached = "Fig07RebufferRateBBA0"
	var warm bytes.Buffer
	if err := abtest(context.Background(), &warm, "-fig", cached); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := abtest(ctx, &out, "-fig", cached)
	if err == nil {
		t.Fatal("canceled run returned nil (would exit zero)")
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if !strings.Contains(out.String(), "# TRUNCATED") {
		t.Error("canceled run produced output without the truncation marker")
	}

	// The uncached path — dispatch surfaces the cancellation itself (a
	// different scale misses the warmed cache) — must carry the marker too.
	var cold bytes.Buffer
	err = abtest(ctx, &cold, "-scale", "full", "-experiments-md")
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("uncached canceled run: err = %v, want context.Canceled", err)
	}
	if !strings.Contains(cold.String(), "# TRUNCATED") {
		t.Error("uncached canceled run lacks the truncation marker")
	}
}
