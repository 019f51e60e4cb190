// The weekend experiment — this package's population run as a Weekend-layout
// campaign — checked from outside the package, since campaign imports it.
package abtest_test

import (
	"bytes"
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/abtest"
	"bba/internal/campaign"
	"bba/internal/faults"
	"bba/internal/metrics"
)

// smallConfig keeps experiment tests fast while exercising every code path.
func smallConfig(seed int64) campaign.Config {
	cfg := campaign.WeekendConfig(seed, 1, 4)
	cfg.CatalogSize = 6
	return cfg
}

func run(t *testing.T, cfg campaign.Config) *campaign.WeekendOutcome {
	t.Helper()
	out, err := campaign.RunWeekend(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestRunProducesAllGroups(t *testing.T) {
	out := run(t, smallConfig(1))
	want := []string{"Control", "Rmin Always", "BBA-0", "BBA-1", "BBA-2", "BBA-Others"}
	for _, g := range want {
		ws, ok := out.Windows[g]
		if !ok {
			t.Fatalf("group %q missing", g)
		}
		if len(ws) != metrics.WindowsPerDay {
			t.Fatalf("group %q has %d windows", g, len(ws))
		}
	}
	for _, g := range out.Report.Groups {
		if g.Sessions != 12*4 {
			t.Fatalf("group %q has %d sessions, want 48", g.Name, g.Sessions)
		}
	}
	if got := len(out.Report.Groups); got != len(want) {
		t.Fatalf("report carries %d groups, want %d", got, len(want))
	}
}

func TestRunDeterministic(t *testing.T) {
	a := run(t, smallConfig(7))
	b := run(t, smallConfig(7))
	for g := range a.Windows {
		for i := range a.Windows[g] {
			wa, wb := a.Windows[g][i], b.Windows[g][i]
			if wa.RebuffersPerPlayhour != wb.RebuffersPerPlayhour ||
				wa.AvgRateKbps != wb.AvgRateKbps ||
				wa.SwitchesPerPlayhour != wb.SwitchesPerPlayhour {
				t.Fatalf("group %s window %d differs between identical runs", g, i)
			}
		}
	}
}

func TestRunPairsSessionsAcrossGroups(t *testing.T) {
	out := run(t, smallConfig(3))
	// Paired design: every group plays the same (window, day) session
	// slots, so play-hours line up closely (identical watch limits; small
	// differences only from stall-truncated tails).
	var ctrl, bound float64
	for _, w := range out.Windows["Control"] {
		ctrl += w.PlayHours
	}
	for _, w := range out.Windows["Rmin Always"] {
		bound += w.PlayHours
	}
	if ctrl == 0 || bound == 0 {
		t.Fatal("no play hours accumulated")
	}
	ratio := ctrl / bound
	if ratio < 0.97 || ratio > 1.03 {
		t.Errorf("paired groups diverge in play hours: ratio %.3f", ratio)
	}
}

func TestRunCustomGroups(t *testing.T) {
	cfg := smallConfig(5)
	cfg.Groups = []abtest.Group{
		{Name: "only", New: func(abtest.User) abr.Algorithm { return abr.RminAlways{} }},
	}
	out := run(t, cfg)
	if len(out.Windows) != 1 {
		t.Fatalf("got %d groups", len(out.Windows))
	}
	for _, w := range out.Windows["only"] {
		if w.SwitchesPerPlayhour != 0 {
			t.Error("RminAlways switched")
		}
	}
}

// The paper's headline relationships, at reduced scale: the buffer-based
// algorithms rebuffer less than Control at peak while Rmin Always bounds
// everyone from below, and the degenerate baseline delivers the lowest
// rate. Uses a moderate population so the comparison is stable.
func TestRunHeadlineOrderings(t *testing.T) {
	if testing.Short() {
		t.Skip("moderate-scale experiment")
	}
	out := run(t, campaign.WeekendConfig(42, 2, 90))
	peak := func(g string) (rb, rate, sw float64) {
		var ph float64
		for _, w := range out.Windows[g] {
			if !metrics.Peak.Covers(w.Index) {
				continue
			}
			rb += w.RebuffersPerPlayhour * w.PlayHours
			rate += w.AvgRateKbps * w.PlayHours
			sw += w.SwitchesPerPlayhour * w.PlayHours
			ph += w.PlayHours
		}
		return rb / ph, rate / ph, sw / ph
	}
	ctrlRb, _, ctrlSw := peak("Control")
	boundRb, boundRate, _ := peak("Rmin Always")
	for _, g := range []string{"BBA-0", "BBA-1", "BBA-2", "BBA-Others"} {
		rb, rate, _ := peak(g)
		if rb >= ctrlRb {
			t.Errorf("%s peak rebuffer rate %.3f not below Control %.3f", g, rb, ctrlRb)
		}
		if rb < boundRb*0.8 {
			t.Errorf("%s peak rebuffer rate %.3f implausibly below the lower bound %.3f", g, rb, boundRb)
		}
		if rate <= boundRate {
			t.Errorf("%s rate %.0f not above the Rmin Always floor %.0f", g, rate, boundRate)
		}
	}
	// Figure 9: BBA-0 switches far less than Control.
	_, _, bba0Sw := peak("BBA-0")
	if bba0Sw >= 0.7*ctrlSw {
		t.Errorf("BBA-0 switch rate %.1f not well below Control %.1f", bba0Sw, ctrlSw)
	}
	// Figure 20: the chunk map makes BBA-1 switch more than Control.
	_, _, bba1Sw := peak("BBA-1")
	if bba1Sw <= ctrlSw {
		t.Errorf("BBA-1 switch rate %.1f not above Control %.1f", bba1Sw, ctrlSw)
	}
}

func TestRunContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := campaign.RunWeekend(ctx, smallConfig(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRunContextCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	cfg := smallConfig(3)
	cfg.Parallelism = 2
	cfg.Groups = []abtest.Group{{Name: "cancel-probe", New: func(abtest.User) abr.Algorithm {
		if calls.Add(1) == 4 {
			cancel()
		}
		return abr.NewBBA0()
	}}}
	_, err := campaign.RunWeekend(ctx, cfg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// Cancellation must stop the run before all 48 draws have started; the
	// bound only catches a runner that ran to completion anyway.
	if calls.Load() >= 48 {
		t.Errorf("run completed all %d draws despite cancellation", calls.Load())
	}
}

// TestRunFailsFastOnWorkerError pins fail-fast through the weekend entry
// point: a session error must abort the run, surface as the error and leave
// the remaining draws unexecuted.
func TestRunFailsFastOnWorkerError(t *testing.T) {
	var calls atomic.Int64
	cfg := campaign.WeekendConfig(9, 2, 20)
	cfg.CatalogSize, cfg.Parallelism = 4, 2
	cfg.Groups = []abtest.Group{{Name: "boom", New: func(abtest.User) abr.Algorithm {
		calls.Add(1)
		// A nil algorithm makes the session fail to start.
		return nil
	}}}
	_, err := campaign.RunWeekend(context.Background(), cfg)
	if err == nil {
		t.Fatal("run succeeded with a nil-algorithm factory")
	}
	if !strings.Contains(err.Error(), "nil algorithm") {
		t.Errorf("err = %v, want the player's nil-algorithm error", err)
	}
	total := int64(2 * metrics.WindowsPerDay * 20)
	if got := calls.Load(); got >= total {
		t.Errorf("all %d draws ran despite an immediate error (want fail fast)", got)
	}
}

func TestRunReportsStats(t *testing.T) {
	out := run(t, smallConfig(13))
	wantSessions := int64(metrics.WindowsPerDay * 4 * len(abtest.StandardGroups()))
	if out.Stats.PlayerSessions != wantSessions {
		t.Errorf("Stats.PlayerSessions = %d, want %d", out.Stats.PlayerSessions, wantSessions)
	}
	if out.Stats.Elapsed <= 0 {
		t.Errorf("Stats.Elapsed = %v, want > 0", out.Stats.Elapsed)
	}
	if out.Stats.Parallelism <= 0 {
		t.Errorf("Stats.Parallelism = %d, want > 0", out.Stats.Parallelism)
	}
	if out.Stats.SessionsPerSecond() <= 0 {
		t.Errorf("SessionsPerSecond = %v, want > 0", out.Stats.SessionsPerSecond())
	}
}

func TestSignificanceRebuffers(t *testing.T) {
	// A group compared with itself — Control and a twin playing Control on
	// the same draws — has identical arms: ratio 1, p = 1.
	ctrl, err := abtest.GroupFor("Control")
	if err != nil {
		t.Fatal(err)
	}
	twin := ctrl
	twin.Name = "Control twin"
	cfg := smallConfig(11)
	cfg.Groups = []abtest.Group{ctrl, twin}
	self, err := run(t, cfg).SignificanceRebuffers("Control", "Control twin", metrics.AllWindows)
	if err != nil || self.Ratio != 1 || self.P != 1 {
		t.Errorf("self-comparison: %+v, %v; want ratio 1, p 1", self, err)
	}

	// Swapping the groups gives the reciprocal ratio and the same p.
	out := run(t, smallConfig(11))
	ab, err := out.SignificanceRebuffers("Control", "Rmin Always", metrics.Peak)
	if err != nil {
		t.Fatalf("peak comparison failed: %v", err)
	}
	ba, err := out.SignificanceRebuffers("Rmin Always", "Control", metrics.Peak)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	if err != nil || ba.N != ab.N || !near(ba.Ratio, 1/ab.Ratio) || !near(ba.Lo, 1/ab.Hi) || !near(ba.Hi, 1/ab.Lo) || !near(ba.P, ab.P) {
		t.Errorf("swapped groups: %+v, %v; from %+v", ba, err, ab)
	}
	if _, err := out.SignificanceRebuffers("BBA-1", "BBA-1", metrics.AllWindows); err == nil {
		t.Error("a group compared with itself has no pair, yet no error")
	}
}

func TestOutcomeWriteCSV(t *testing.T) {
	out := run(t, smallConfig(21))
	var buf bytes.Buffer
	if err := out.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + 6 groups × 12 windows.
	if len(lines) != 1+6*12 {
		t.Fatalf("CSV has %d lines, want %d", len(lines), 1+6*12)
	}
	if !strings.HasPrefix(lines[0], "group,window,") {
		t.Errorf("header = %q", lines[0])
	}
	// Rows are grouped and sorted by group name.
	if !strings.HasPrefix(lines[1], "BBA-0,0,") {
		t.Errorf("first row = %q, want BBA-0 window 0", lines[1])
	}
	for _, line := range lines[1:] {
		if got := strings.Count(line, ","); got != 9 {
			t.Fatalf("row %q has %d commas, want 9", line, got)
		}
	}
}

// stormConfig is a deliberately hostile fault load so even short test
// sessions see every kind: roughly one episode of each kind every five
// minutes of session time.
func stormConfig() *faults.ScheduleConfig {
	return &faults.ScheduleConfig{
		Blackouts:     faults.EpisodeConfig{PerHour: 12, MinDuration: 5 * time.Second, MaxDuration: 20 * time.Second},
		Collapses:     faults.EpisodeConfig{PerHour: 12, MinDuration: 10 * time.Second, MaxDuration: 30 * time.Second},
		LatencySpikes: faults.EpisodeConfig{PerHour: 12, MinDuration: 10 * time.Second, MaxDuration: 30 * time.Second},
		ServerErrors:  faults.EpisodeConfig{PerHour: 12, MinDuration: 10 * time.Second, MaxDuration: 30 * time.Second},
		StallBodies:   faults.EpisodeConfig{PerHour: 6, MinDuration: 5 * time.Second, MaxDuration: 15 * time.Second},
		ConnResets:    faults.EpisodeConfig{PerHour: 6, MinDuration: 5 * time.Second, MaxDuration: 15 * time.Second},
		Horizon:       4 * time.Hour,
	}
}

// TestFaultWeatherIsPaired pins the paired design under faults: every
// group of one session faces the identical schedule, so every group sees
// fault activity under the storm and the totals do not depend on the
// worker count; and a clean config reports no fault activity at all.
func TestFaultWeatherIsPaired(t *testing.T) {
	cfg := campaign.WeekendConfig(11, 1, 2)
	cfg.CatalogSize = 4
	clean := run(t, cfg)
	if s := clean.Stats; s.Faults != 0 || s.Retries != 0 || s.Degradations != 0 || s.Failovers != 0 {
		t.Errorf("clean run reports fault activity: %+v", s)
	}

	cfg.Faults, cfg.FaultSeed = stormConfig(), 7
	cfg.Parallelism = 1
	serial := run(t, cfg)
	for _, g := range serial.Report.Groups {
		if g.Faults+g.Retries == 0 {
			t.Errorf("group %s saw no fault activity under the storm", g.Name)
		}
	}
	cfg.Parallelism = 8
	wide := run(t, cfg)
	if !reflect.DeepEqual(wide.Report, serial.Report) || !reflect.DeepEqual(wide.Windows, serial.Windows) ||
		!reflect.DeepEqual(wide.Pairs, serial.Pairs) {
		t.Error("faulted outcome differs between Parallelism=1 and Parallelism=8")
	}
}
