package metrics

import (
	"math"
	"slices"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/units"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// script fetches chunk k at rung script[k].
type script []int

func (script) Name() string                          { return "script" }
func (s script) Next(st abr.State, _ abr.Stream) int { return s[st.NextChunk] }

// played drives a player.Session by hand: chunk k is fetched at rates[k],
// its download started at starts[k] (a second after the previous one when
// starts is nil). Callers set the Result's scalar fields they test.
func played(t *testing.T, rates []units.BitRate, starts []time.Duration) *player.Result {
	t.Helper()
	ladder := slices.Clone(rates)
	slices.Sort(ladder)
	ladder = slices.Compact(ladder)
	rungs := make(script, len(rates))
	for k, r := range rates {
		rungs[k] = slices.Index(ladder, r)
	}
	v, err := media.NewCBR("played", ladder, media.DefaultChunkDuration, len(rates))
	if err != nil {
		t.Fatal(err)
	}
	var ss player.Session
	if err := ss.Start(player.Config{Algorithm: rungs, Stream: abr.NewStream(v, 0)}); err != nil {
		t.Fatal(err)
	}
	for k := range rates {
		req, done := ss.Request()
		if done || starts != nil && ss.Now() != starts[k] {
			t.Fatalf("chunk %d requested at %v (done %v)", k, ss.Now(), done)
		}
		dl := time.Second
		if starts != nil && k+1 < len(starts) {
			dl = starts[k+1] - starts[k]
		}
		if _, err := ss.Deliver(req, req.Bytes, dl); err != nil {
			t.Fatal(err)
		}
	}
	return ss.Result()
}

func TestFromResult(t *testing.T) {
	r := played(t,
		[]units.BitRate{235 * units.Kbps, 1050 * units.Kbps, 3000 * units.Kbps, 3000 * units.Kbps},
		[]time.Duration{0, 30 * time.Second, 3 * time.Minute, 4 * time.Minute})
	r.Algorithm, r.Played, r.Rebuffers, r.Switches = "BBA-2", 30*time.Minute, 2, 7
	s := FromResult(r, 3, 1)
	if s.Window != 3 || s.Day != 1 {
		t.Errorf("window/day = %d/%d", s.Window, s.Day)
	}
	if !almost(s.PlayHours, 0.5, 1e-9) {
		t.Errorf("playhours = %v", s.PlayHours)
	}
	if s.Rebuffers != 2 || s.Switches != 7 {
		t.Error("counts not carried over")
	}
	if !s.SteadyReached || s.SteadyRateKbps != 3000 {
		t.Errorf("steady = %v (reached=%v), want 3000", s.SteadyRateKbps, s.SteadyReached)
	}
	if s.StartupRateKbps != (235.0+1050.0)/2 {
		t.Errorf("startup = %v", s.StartupRateKbps)
	}
}

func TestAggregateBasics(t *testing.T) {
	sessions := []Session{
		{Window: 0, Day: 0, PlayHours: 1, Rebuffers: 2, Switches: 10, AvgRateKbps: 1000, SteadyRateKbps: 1200, SteadyReached: true},
		{Window: 0, Day: 0, PlayHours: 3, Rebuffers: 0, Switches: 2, AvgRateKbps: 2000, SteadyRateKbps: 2200, SteadyReached: true},
		{Window: 5, Day: 0, PlayHours: 2, Rebuffers: 4, Switches: 0, AvgRateKbps: 500},
	}
	ws, err := Aggregate(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != WindowsPerDay {
		t.Fatalf("got %d windows", len(ws))
	}
	w0 := ws[0]
	if w0.Sessions != 2 || w0.PlayHours != 4 {
		t.Errorf("w0 sessions/playhours = %d/%v", w0.Sessions, w0.PlayHours)
	}
	if !almost(w0.RebuffersPerPlayhour, 0.5, 1e-9) {
		t.Errorf("w0 rebuffer rate = %v, want 0.5", w0.RebuffersPerPlayhour)
	}
	if !almost(w0.SwitchesPerPlayhour, 3, 1e-9) {
		t.Errorf("w0 switch rate = %v, want 3", w0.SwitchesPerPlayhour)
	}
	// Play-hour weighted: (1000·1 + 2000·3)/4 = 1750.
	if !almost(w0.AvgRateKbps, 1750, 1e-9) {
		t.Errorf("w0 avg rate = %v, want 1750", w0.AvgRateKbps)
	}
	// Steady weighted: (1200·1 + 2200·3)/4 = 1950.
	if !almost(w0.SteadyRateKbps, 1950, 1e-9) {
		t.Errorf("w0 steady rate = %v, want 1950", w0.SteadyRateKbps)
	}
	if ws[5].RebuffersPerPlayhour != 2 {
		t.Errorf("w5 rebuffer rate = %v", ws[5].RebuffersPerPlayhour)
	}
	// Empty windows stay zero.
	if ws[7].Sessions != 0 || ws[7].RebuffersPerPlayhour != 0 {
		t.Error("empty window not zero")
	}
}

func TestAggregatePerDayVariance(t *testing.T) {
	sessions := []Session{
		{Window: 2, Day: 0, PlayHours: 1, Rebuffers: 1},
		{Window: 2, Day: 1, PlayHours: 1, Rebuffers: 3},
		{Window: 2, Day: 2, PlayHours: 1, Rebuffers: 2},
	}
	ws, err := Aggregate(sessions)
	if err != nil {
		t.Fatal(err)
	}
	w := ws[2]
	if len(w.RebufferRateByDay) != 3 {
		t.Fatalf("byDay = %v", w.RebufferRateByDay)
	}
	// Days are ordered: 1, 3, 2 rebuffers/hour.
	if w.RebufferRateByDay[0] != 1 || w.RebufferRateByDay[1] != 3 || w.RebufferRateByDay[2] != 2 {
		t.Errorf("byDay = %v", w.RebufferRateByDay)
	}
	if !almost(w.RebufferRateStdDev, 1, 1e-9) {
		t.Errorf("stddev = %v, want 1", w.RebufferRateStdDev)
	}
}

func TestAggregateRejectsBadWindow(t *testing.T) {
	if _, err := Aggregate([]Session{{Window: 12}}); err == nil {
		t.Error("window 12 accepted")
	}
	if _, err := Aggregate([]Session{{Window: -1}}); err == nil {
		t.Error("window -1 accepted")
	}
}

func TestNormalization(t *testing.T) {
	control := make([]Window, WindowsPerDay)
	group := make([]Window, WindowsPerDay)
	for i := range control {
		control[i] = Window{RebuffersPerPlayhour: 2, SwitchesPerPlayhour: 10, AvgRateKbps: 2000, SteadyRateKbps: 2100}
		group[i] = Window{RebuffersPerPlayhour: 1.5, SwitchesPerPlayhour: 4, AvgRateKbps: 1900, SteadyRateKbps: 2200}
	}
	nr := NormalizeRebuffers(group, control)
	if !almost(nr[0], 0.75, 1e-9) {
		t.Errorf("normalized rebuffers = %v", nr[0])
	}
	ns := NormalizeSwitches(group, control)
	if !almost(ns[3], 0.4, 1e-9) {
		t.Errorf("normalized switches = %v", ns[3])
	}
	rd := RateDeltaKbps(control, group)
	if !almost(rd[5], 100, 1e-9) {
		t.Errorf("rate delta = %v", rd[5])
	}
	sd := SteadyRateDeltaKbps(control, group)
	if !almost(sd[5], -100, 1e-9) {
		t.Errorf("steady delta = %v", sd[5])
	}
	// Zero control denominators yield zero.
	if got := NormalizeRebuffers(group, make([]Window, WindowsPerDay)); got[0] != 0 {
		t.Errorf("zero control: %v", got[0])
	}
}

func TestWindowHelpers(t *testing.T) {
	if got := WindowLabel(0); got != "00-02 GMT" {
		t.Errorf("label = %q", got)
	}
	if got := WindowLabel(11); got != "22-24 GMT" {
		t.Errorf("label = %q", got)
	}
	for i := 0; i < WindowsPerDay; i++ {
		want := AllWindows
		switch {
		case i <= 2:
			want = Peak
		case i <= 5:
			want = OffPeak
		}
		if got := ClassOf(i); got != want {
			t.Errorf("ClassOf(%d) = %d, want %d", i, got, want)
		}
		if !AllWindows.Covers(i) || Peak.Covers(i) != (want == Peak) || OffPeak.Covers(i) != (want == OffPeak) {
			t.Errorf("window %d covered wrongly", i)
		}
	}
}

func TestQoEAggregation(t *testing.T) {
	sessions := []Session{
		{Window: 1, PlayHours: 1, QoE: 100},
		{Window: 1, PlayHours: 3, QoE: 300},
	}
	ws, err := Aggregate(sessions)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(ws[1].QoEPerPlayhour, 100, 1e-9) {
		t.Errorf("QoE/h = %v, want (100+300)/4 = 100", ws[1].QoEPerPlayhour)
	}
}

func TestFromResultQoE(t *testing.T) {
	r := played(t, []units.BitRate{3000 * units.Kbps, 3000 * units.Kbps}, nil)
	r.Played, r.StallTime = time.Hour, 0
	s := FromResult(r, 0, 0)
	// Two 3 Mb/s chunks, no stalls, no switches: QoE = 6 under linear
	// quality.
	if !almost(s.QoE, 6, 1e-9) {
		t.Errorf("QoE = %v, want 6", s.QoE)
	}
}

func qoeSession(t *testing.T, rates []units.BitRate, stall time.Duration) *player.Result {
	res := &player.Result{}
	if len(rates) > 0 {
		res = played(t, rates, nil)
	}
	res.Played, res.StallTime = time.Minute, stall
	return res
}

func TestQoEComponents(t *testing.T) {
	// Linear quality 1 + 3 + 3 = 7, one switch of |3−1| = 2 and two
	// stalled seconds: QoE = 7 − 5·2 − 1·2 = −5.
	res := qoeSession(t, []units.BitRate{1000 * units.Kbps, 3000 * units.Kbps, 3000 * units.Kbps}, 2*time.Second)
	if q := QoE(res); !almost(q, -5, 1e-9) {
		t.Errorf("QoE = %v, want -5", q)
	}
	if q := QoE(qoeSession(t, []units.BitRate{1000 * units.Kbps, 3000 * units.Kbps}, 0)); !almost(q, 2, 1e-9) {
		t.Errorf("QoE = %v, want 1 + 3 − |3−1| = 2", q)
	}
	if q := QoE(qoeSession(t, nil, 3*time.Second)); !almost(q, -15, 1e-9) {
		t.Errorf("QoE = %v, want −5·3 = −15", q)
	}
}

func TestQoEOrdersObviousCases(t *testing.T) {
	steadyHigh := QoE(qoeSession(t, []units.BitRate{3000 * units.Kbps, 3000 * units.Kbps, 3000 * units.Kbps}, 0))
	steadyLow := QoE(qoeSession(t, []units.BitRate{500 * units.Kbps, 500 * units.Kbps, 500 * units.Kbps}, 0))
	flappy := QoE(qoeSession(t, []units.BitRate{3000 * units.Kbps, 500 * units.Kbps, 3000 * units.Kbps}, 0))
	stalled := QoE(qoeSession(t, []units.BitRate{3000 * units.Kbps, 3000 * units.Kbps, 3000 * units.Kbps}, 10*time.Second))

	if steadyHigh <= steadyLow {
		t.Error("higher rate should score higher")
	}
	if flappy >= steadyHigh {
		t.Error("flapping should cost quality")
	}
	if stalled >= steadyHigh {
		t.Error("stalling should cost quality")
	}
}
