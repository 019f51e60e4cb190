package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"bba/internal/campaign"
	"bba/internal/obs"
)

// cli drives the binary from argv, the way main does under obs.Main.
func cli(ctx context.Context, args []string, out, errw *bytes.Buffer) error {
	return env{out: out, errw: errw}.cli(ctx, args)
}

// tiny is a small campaign's identity and execution flags; sub is the
// subcommand, extra its own flags.
func tiny(sub string, sessions int, extra ...string) []string {
	args := []string{sub, "-sessions", strconv.Itoa(sessions), "-shard-size", "8", "-days", "3", "-seed", "11",
		"-sketch", "64", "-workers", "2", "-progress-every", "0"}
	return append(args, extra...)
}

// mustRun runs one argv line and returns its stdout.
func mustRun(t *testing.T, args []string) []byte {
	t.Helper()
	var out, errw bytes.Buffer
	if err := cli(context.Background(), args, &out, &errw); err != nil {
		t.Fatalf("%v: %v\nstderr: %s", args, err, errw.String())
	}
	return out.Bytes()
}

// TestEndToEndReport runs a tiny campaign through the CLI path and checks
// the report and the progress stream.
func TestEndToEndReport(t *testing.T) {
	var out, errw bytes.Buffer
	if err := cli(context.Background(), tiny("run", 24, "-progress-every", "1ns"), &out, &errw); err != nil {
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
	var rep campaign.Report
	if err := json.Unmarshal(mustRun(t, tiny("run", 16, "-algos", "BBA-2, BOLA ,SmoothThroughput")), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Groups) != 3 || rep.Groups[0].Name != "BBA-2" || rep.Groups[1].Name != "BOLA" {
		t.Errorf("arms: %+v", rep.Groups)
	}

	err := cli(context.Background(), tiny("run", 16, "-algos", "BBA-2,nope"), new(bytes.Buffer), new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "nope") {
		t.Errorf("unknown algorithm: %v", err)
	}
}

// TestInterruptResume cancels a run mid-campaign, then resumes it from the
// checkpoint via the same CLI path: the cancelled invocation must fail with
// a truncated report, and the resumed one must finish with the same report
// an uninterrupted run produces.
func TestInterruptResume(t *testing.T) {
	want := mustRun(t, tiny("run", 40))

	args := tiny("run", 40, "-checkpoint-every", "1", "-checkpoint", filepath.Join(t.TempDir(), "cp.json"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	shards := 0
	var out, errw bytes.Buffer
	// Cancel from the progress stream after two shards, as a SIGINT would.
	e := env{out: &out, errw: &errw, progressHook: func(campaign.Progress) {
		if shards++; shards == 2 {
			cancel()
		}
	}}
	if err := e.cli(ctx, args); err == nil {
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

	var resumed, errw2 bytes.Buffer
	if err := cli(context.Background(), args, &resumed, &errw2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw2.String(), "resuming from") {
		t.Errorf("resume did not load the checkpoint: %q", errw2.String())
	}
	if !bytes.Equal(resumed.Bytes(), want) {
		t.Error("resumed report differs from uninterrupted report")
	}
}

// TestSIGTERMWritesCheckpoint sends the process a real SIGTERM mid-campaign
// under obs.Main, the way main runs: a plain kill must take the same
// cancel path as Ctrl-C — non-zero exit, resumable checkpoint on disk —
// rather than ending the process with the shards since the last periodic
// write lost.
func TestSIGTERMWritesCheckpoint(t *testing.T) {
	cp := filepath.Join(t.TempDir(), "cp.json")
	// 20 shards against a merge window of 4 (2 × -workers): while the hook
	// holds the fold at 2 the workers can finish at most 4 more, so whatever
	// the scheduler does the checkpoint is a strict subset (5 shards fitted
	// inside the window and came out complete when sessions got cheap).
	// -checkpoint-every: only the on-cancel write can produce the file.
	args := tiny("run", 160, "-checkpoint-every", "1048576", "-checkpoint", cp)
	var runErr error
	var errw bytes.Buffer
	obs.Main("bbacampaign", func(ctx context.Context) error {
		shards := 0
		e := env{out: new(bytes.Buffer), errw: &errw, progressHook: func(campaign.Progress) {
			if shards++; shards == 2 {
				if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
					t.Error(err)
				}
				<-ctx.Done() // signal delivery is asynchronous; hold the fold until it lands
			}
		}}
		runErr = e.cli(ctx, args)
		return nil // the exit code is main's business; the error is checked here
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("run under SIGTERM = %v, want a context.Canceled interruption", runErr)
	}
	loaded, err := campaign.LoadCheckpoint(cp)
	if err != nil {
		t.Fatalf("no resumable checkpoint after SIGTERM: %v\nstderr: %s", err, errw.String())
	}
	if loaded.CompletedShards() < 2 || loaded.Complete() {
		t.Errorf("checkpoint holds %d shards (complete=%v), want a partial run of at least 2", loaded.CompletedShards(), loaded.Complete())
	}
}

// TestEngineLabel pins the unified throughput summary: both engines report
// sessions/s with an engine= label naming the path that actually ran.
func TestEngineLabel(t *testing.T) {
	for _, tc := range []struct {
		extra []string
		want  string
	}{
		{nil, "(engine=scalar)"},
		{[]string{"-batch"}, "(engine=batch)"},
	} {
		var out, errw bytes.Buffer
		if err := cli(context.Background(), tiny("run", 16, tc.extra...), &out, &errw); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(errw.String(), "sessions/s "+tc.want) {
			t.Errorf("%v summary missing %q: %q", tc.extra, tc.want, errw.String())
		}
	}
}

func sha(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// TestWeekendGolden pins the weekend experiment's bytes across the move from
// the abtest runner onto the campaign and from `abtest -csv` / `abtest
// -faults` to `bbacampaign weekend`: the sha256 of the quick-scale CSV,
// taken with the old runner.
func TestWeekendGolden(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"weekend", "-progress-every", "0"}, "0ca1b08689b186d9b811d7f1be15ad3d7bd28682aa2d6e9694c0900edb2a7db0"},
		{[]string{"weekend", "-progress-every", "0", "-faults"}, "48ea5d3ccf1cb17afe49938d57392717d04028a3b198a21963aa37bb9ed381da"},
	} {
		if got := sha(mustRun(t, tc.args)); got != tc.want {
			t.Errorf("%v: sha256 %s, want %s", tc.args, got, tc.want)
		}
	}
	// -scale is a preset of the sizing flags, applied in command-line order
	// (a later sizing flag wins); a size that is not days × 12 × shard-size
	// is refused by the layout.
	small := mustRun(t, []string{"weekend", "-progress-every", "0", "-scale", "full", "-days", "1", "-shard-size", "2", "-sessions", "24"})
	if rows := bytes.Count(small, []byte("\n")); rows != 1+6*12 {
		t.Errorf("1 day × 12 windows × 6 groups after -scale full: %d CSV lines, want %d", rows, 1+6*12)
	}
	err := cli(context.Background(), []string{"weekend", "-sessions", "100"}, new(bytes.Buffer), new(bytes.Buffer))
	if err == nil || !strings.Contains(err.Error(), "weekend layout") {
		t.Errorf("mis-sized weekend: %v", err)
	}
}

// TestRunGolden pins `run`'s report bytes to sha256s taken with the parent
// commit's flag-mode binary (bbacampaign -seed 77 -sessions 1500 -shard-size
// 256 [-faults]), and holds them under -batch and through a coordinator
// fleet of two `worker` CLI runs.
func TestRunGolden(t *testing.T) {
	base := []string{"run", "-seed", "77", "-sessions", "1500", "-shard-size", "256", "-progress-every", "0"}
	for _, tc := range []struct {
		name  string
		extra []string
		want  string
	}{
		{"clean", nil, "40cd5a6e22ceb12a4644481b40ad5b0486353f690d44891f6fd60e6fefe542b4"},
		{"faults", []string{"-faults"}, "f38d73dcad4f4e462485fb7345f8f7105f1f722e7fb3d5fa5ab11e3aaca36308"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append(append([]string{}, base...), tc.extra...)
			if got := sha(mustRun(t, args)); got != tc.want {
				t.Errorf("%v: sha256 %s, want %s", args, got, tc.want)
			}
			if got := sha(mustRun(t, append(args, "-batch"))); got != tc.want {
				t.Errorf("-batch: sha256 %s, want %s", got, tc.want)
			}
			id := campaign.FlagDefaults()
			id.Seed, id.Sessions, id.ShardSize, id.Faults = 77, 1500, 256, tc.extra != nil
			if got := sha(fleetReport(t, id, 2)); got != tc.want {
				t.Errorf("2-worker fleet: sha256 %s, want %s", got, tc.want)
			}
		})
	}
}
