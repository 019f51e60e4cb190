package player

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

func cbrStream(t testing.TB, chunks int) abr.Stream {
	t.Helper()
	v, err := media.NewCBR("cbr", media.DefaultLadder(), media.DefaultChunkDuration, chunks)
	if err != nil {
		t.Fatal(err)
	}
	return abr.NewStream(v, 0)
}

func vbrStream(t testing.TB, seed int64, chunks int) abr.Stream {
	t.Helper()
	v, err := media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: chunks}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return abr.NewStream(v, 0)
}

func TestRunValidation(t *testing.T) {
	s := cbrStream(t, 10)
	if _, err := Run(Config{Stream: s, Trace: trace.Constant(units.Mbps, time.Minute)}); err == nil {
		t.Error("nil algorithm accepted")
	}
	if _, err := Run(Config{Algorithm: abr.RminAlways{}, Stream: s}); err == nil {
		t.Error("nil trace accepted")
	}
}

func TestHappyPathNoRebuffers(t *testing.T) {
	s := cbrStream(t, 450) // 30 minutes
	res, log, _ := runLogged(t, Config{
		Algorithm: abr.NewBBA2(),
		Stream:    s,
		Trace:     trace.Constant(10*units.Mbps, time.Hour),
	})
	if res.Rebuffers != 0 || res.StallTime != 0 {
		t.Errorf("rebuffers=%d stall=%v on a 10Mb/s link", res.Rebuffers, res.StallTime)
	}
	if res.Played != s.Video().Duration() {
		t.Errorf("played %v, want full title %v", res.Played, s.Video().Duration())
	}
	if res.Incomplete {
		t.Error("marked incomplete")
	}
	// With capacity over R_max, the rate must reach and hold the top.
	last := log[len(log)-1]
	if last.Rate != s.Ladder().Max() {
		t.Errorf("final rate %v, want R_max", last.Rate)
	}
	// Wall time ≈ played time (buffer fills then the ON-OFF pattern
	// paces downloads at playback speed).
	if res.End < res.Played {
		t.Errorf("session ended at %v before playing %v", res.End, res.Played)
	}
}

func TestWatchLimit(t *testing.T) {
	s := cbrStream(t, 1800)
	limit := 10 * time.Minute
	res, err := Run(Config{
		Algorithm:  abr.NewBBA2(),
		Stream:     s,
		Trace:      trace.Constant(5*units.Mbps, time.Hour),
		WatchLimit: limit,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Played != limit {
		t.Errorf("played %v, want watch limit %v", res.Played, limit)
	}
	// Downloads should not have run far past the limit.
	maxChunks := int(limit/s.ChunkDuration()) + int(240/4) + 2
	if res.ChunkCount() > maxChunks {
		t.Errorf("downloaded %d chunks for a %v session", res.ChunkCount(), limit)
	}
}

func TestJoinDelay(t *testing.T) {
	s := cbrStream(t, 30)
	// First chunk at R_min (235 kb/s, 117.5 kB) over 1 Mb/s: 0.94 s.
	res, err := Run(Config{
		Algorithm: abr.NewBBA0(),
		Stream:    s,
		Trace:     trace.Constant(units.Mbps, time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 940 * time.Millisecond
	if d := res.JoinDelay - want; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("join delay = %v, want ≈%v", res.JoinDelay, want)
	}
}

func TestRmaxAlwaysRebuffersOnSlowLink(t *testing.T) {
	s := cbrStream(t, 150)
	// R_max is 5 Mb/s; a 1 Mb/s link cannot sustain it.
	res, err := Run(Config{
		Algorithm: abr.RmaxAlways{},
		Stream:    s,
		Trace:     trace.Constant(units.Mbps, 2*time.Hour),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuffers == 0 {
		t.Error("RmaxAlways on a slow link should rebuffer")
	}
	if res.StallTime == 0 {
		t.Error("no stall time recorded")
	}
}

func TestRminAlwaysNeverRebuffersAboveRmin(t *testing.T) {
	s := vbrStream(t, 3, 450)
	// Capacity always ≥ 2×R_min even while varying.
	tr := trace.Markov(trace.MarkovConfig{
		Base:     2 * units.Mbps,
		Sigma:    1.0,
		Duration: time.Hour,
		Floor:    2 * 235 * units.Kbps,
	}, rand.New(rand.NewSource(8)))
	res, err := Run(Config{Algorithm: abr.RminAlways{}, Stream: s, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuffers != 0 {
		t.Errorf("RminAlways rebuffered %d times with C ≥ 2·Rmin", res.Rebuffers)
	}
	if res.Switches != 0 {
		t.Errorf("RminAlways switched %d times", res.Switches)
	}
}

// Theorem 1 on BBA-0 over a CBR encode: its map meets the discrete
// hypothesis derived in theorems_test.go, so with C(t) ≥ R_min at all times
// it never rebuffers.
func TestQuickNoUnnecessaryRebuffersBBA0(t *testing.T) {
	s := cbrStream(t, 450)
	f := func(seed int64) bool {
		tr := trace.Markov(trace.MarkovConfig{
			Base:     1500 * units.Kbps,
			Sigma:    1.3,
			Duration: time.Hour,
			Floor:    235 * units.Kbps, // C(t) ≥ R_min
		}, rand.New(rand.NewSource(seed)))
		res, err := Run(Config{Algorithm: abr.NewBBA0(), Stream: s, Trace: tr})
		if err != nil {
			return false
		}
		return res.Rebuffers == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestTerminalOutageMarksIncomplete(t *testing.T) {
	s := cbrStream(t, 450)
	tr := trace.MustNew([]trace.Segment{
		{Duration: time.Minute, Rate: 3 * units.Mbps},
		{Duration: time.Second, Rate: 0}, // dead forever after
	})
	res, err := Run(Config{Algorithm: abr.NewBBA2(), Stream: s, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete {
		t.Error("session not marked incomplete")
	}
	if res.Rebuffers == 0 {
		t.Error("the permanent freeze should count as a rebuffer event")
	}
	// The viewer still watched everything that was buffered.
	if res.Played == 0 {
		t.Error("nothing played before the outage")
	}
}

func TestDeadLinkFromStart(t *testing.T) {
	s := cbrStream(t, 10)
	if _, err := Run(Config{
		Algorithm: abr.NewBBA0(),
		Stream:    s,
		Trace:     trace.Constant(0, time.Minute),
	}); err != ErrNoProgress {
		t.Errorf("err = %v, want ErrNoProgress", err)
	}
}

func TestMidSessionOutageWithRecovery(t *testing.T) {
	s := cbrStream(t, 450)
	base := trace.Constant(3*units.Mbps, time.Hour)
	tr, err := faults.MustSchedule([]faults.Fault{
		{Kind: faults.Blackout, Start: 5 * time.Minute, Duration: 25 * time.Second},
	}).ApplyToTrace(base)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Algorithm: abr.NewBBA2(), Stream: s, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// A 25 s outage against a buffer that has had 5 minutes to fill:
	// playback should ride it out.
	if res.Rebuffers != 0 {
		t.Errorf("25s outage with a warm buffer caused %d rebuffers", res.Rebuffers)
	}
	if res.Incomplete {
		t.Error("marked incomplete despite recovery")
	}
}

func TestSwitchCounting(t *testing.T) {
	s := cbrStream(t, 60)
	res, log, _ := runLogged(t, Config{
		Algorithm: abr.NewBBA2(),
		Stream:    s,
		Trace:     trace.Constant(10*units.Mbps, time.Hour),
	})
	// Count transitions in the log and compare.
	want := 0
	for i := 1; i < len(log); i++ {
		if log[i].RateIndex != log[i-1].RateIndex {
			want++
		}
	}
	if res.Switches != want {
		t.Errorf("Switches = %d, log shows %d", res.Switches, want)
	}
	if res.Switches == 0 {
		t.Error("startup ramp should produce switches")
	}
}

func TestBBA2RampsFasterThanBBA1(t *testing.T) {
	// Figure 16: on a link comfortably above R_max, BBA-2 reaches the
	// steady-state rate much sooner than BBA-1.
	s := vbrStream(t, 5, 450)
	tr := trace.Constant(10*units.Mbps, time.Hour)
	limit := 8 * time.Minute

	r1, err := Run(Config{Algorithm: abr.NewBBA1(), Stream: s, Trace: tr, WatchLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(Config{Algorithm: abr.NewBBA2(), Stream: s, Trace: tr, WatchLimit: limit})
	if err != nil {
		t.Fatal(err)
	}
	if r2.StartupAvgRateKbps() <= r1.StartupAvgRateKbps() {
		t.Errorf("BBA-2 startup rate %.0f not above BBA-1 %.0f",
			r2.StartupAvgRateKbps(), r1.StartupAvgRateKbps())
	}
	// And the overall average benefits accordingly.
	if r2.AvgRateKbps() <= r1.AvgRateKbps() {
		t.Errorf("BBA-2 avg %.0f not above BBA-1 %.0f", r2.AvgRateKbps(), r1.AvgRateKbps())
	}
}

func TestSteadyStateMatchesCapacity(t *testing.T) {
	// Section 3.1: with R_min < C < R_max, the steady-state average rate
	// approaches the capacity (the buffer settles where f(B) = C).
	s := cbrStream(t, 1800)
	c := 1400 * units.Kbps
	res, err := Run(Config{
		Algorithm:  abr.NewBBA0(),
		Stream:     s,
		Trace:      trace.Constant(c, 3*time.Hour),
		WatchLimit: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuffers != 0 {
		t.Fatalf("rebuffered %d times at constant capacity above R_min", res.Rebuffers)
	}
	steady := res.SteadyAvgRateKbps()
	if steady < 0.75*c.Kilobits() || steady > 1.05*c.Kilobits() {
		t.Errorf("steady rate %.0f kb/s, want ≈ capacity %.0f kb/s", steady, c.Kilobits())
	}
}

func TestMetricsHelpers(t *testing.T) {
	r := &Result{Played: 2 * time.Hour, Rebuffers: 3, Switches: 10}
	if got := r.RebuffersPerPlayhour(); got != 1.5 {
		t.Errorf("RebuffersPerPlayhour = %v", got)
	}
	if got := r.SwitchesPerPlayhour(); got != 5 {
		t.Errorf("SwitchesPerPlayhour = %v", got)
	}
	empty := &Result{}
	if empty.RebuffersPerPlayhour() != 0 || empty.SwitchesPerPlayhour() != 0 || empty.AvgRateKbps() != 0 {
		t.Error("zero-play metrics should be 0")
	}
	if empty.StartupAvgRateKbps() != 0 || empty.SteadyAvgRateKbps() != 0 {
		t.Error("zero-chunk phase rates should be 0")
	}
}

func TestChunkRecordsConsistent(t *testing.T) {
	s := vbrStream(t, 9, 200)
	_, log, _ := runLogged(t, Config{
		Algorithm: abr.NewBBAOthers(),
		Stream:    s,
		Trace:     trace.Constant(4*units.Mbps, time.Hour),
	})
	var prevStart time.Duration
	for i, c := range log {
		if c.Index != i {
			t.Fatalf("chunk %d has index %d (no skips or repeats allowed)", i, c.Index)
		}
		if c.Bytes != s.ChunkSize(c.RateIndex, c.Index) {
			t.Fatalf("chunk %d bytes %d do not match the encode", i, c.Bytes)
		}
		if c.Start < prevStart {
			t.Fatalf("chunk %d starts before its predecessor", i)
		}
		if c.Download <= 0 || c.Throughput <= 0 {
			t.Fatalf("chunk %d has no download accounting", i)
		}
		if c.BufferAfter < 0 || c.BufferAfter > 240*time.Second {
			t.Fatalf("chunk %d buffer %v out of range", i, c.BufferAfter)
		}
		prevStart = c.Start
	}
}

func TestRunDeterministic(t *testing.T) {
	s := vbrStream(t, 17, 450)
	tr := trace.Markov(trace.MarkovConfig{Base: 3 * units.Mbps, Sigma: 1.0, Duration: time.Hour}, rand.New(rand.NewSource(4)))
	run := func() (*Result, []chunk) {
		res, log, _ := runLogged(t, Config{Algorithm: abr.NewBBA2(), Stream: s, Trace: tr, WatchLimit: 15 * time.Minute})
		return res, log
	}
	a, aLog := run()
	b, bLog := run()
	if a.Rebuffers != b.Rebuffers || a.Played != b.Played || a.Switches != b.Switches || len(aLog) != len(bLog) {
		t.Fatal("identical configs diverged")
	}
	for i := range aLog {
		if aLog[i] != bLog[i] {
			t.Fatalf("chunk %d differs", i)
		}
	}
}

// observedSession plays 10 minutes of a VBR title over tr and returns the
// result with the session's events.
func observedSession(t *testing.T, alg abr.Algorithm, tr *trace.Trace) (*Result, []telemetry.Event, abr.Stream) {
	t.Helper()
	v, err := media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: 450}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	s := abr.NewStream(v, 0)
	res, _, events := runLogged(t, Config{Algorithm: alg, Stream: s, Trace: tr, WatchLimit: 10 * time.Minute})
	return res, events, s
}

func TestObservedTraceValidation(t *testing.T) {
	if _, err := ObservedTrace(nil); err != ErrNoObservations {
		t.Errorf("no events: %v", err)
	}
	noChunks := []telemetry.Event{
		{Kind: telemetry.SessionStart}, {Kind: telemetry.ChunkRequest, Chunk: 0},
		{Kind: telemetry.ChunkComplete, At: time.Second, Duration: 0, Throughput: units.Mbps},
		{Kind: telemetry.SessionEnd, At: time.Second},
	}
	if _, err := ObservedTrace(noChunks); err != ErrNoObservations {
		t.Errorf("no chunk with a measured download: %v", err)
	}
}

func TestObservedTraceMatchesConstantNetwork(t *testing.T) {
	// On a constant link every observation is the link rate, so the
	// reconstructed trace is flat at that rate.
	_, events, _ := observedSession(t, abr.NewBBA2(), trace.Constant(3*units.Mbps, time.Hour))
	tr, err := ObservedTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	for at := time.Duration(0); at < tr.Total(); at += 10 * time.Second {
		r := tr.RateAt(at)
		if r < 2990*units.Kbps || r > 3010*units.Kbps {
			t.Fatalf("reconstructed rate at %v = %v, want ≈3Mb/s", at, r)
		}
	}
}

func TestObservedTraceSeesTheStep(t *testing.T) {
	// A Figure 4-style collapse must be visible in the reconstruction.
	step := trace.Step(5*units.Mbps, 350*units.Kbps, 25*time.Second, time.Hour)
	_, events, _ := observedSession(t, abr.NewBBA2(), step)
	tr, err := ObservedTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	early := tr.RateAt(5 * time.Second)
	late := tr.RateAt(2 * time.Minute)
	if early < 4*units.Mbps {
		t.Errorf("pre-collapse reconstruction %v, want ≈5Mb/s", early)
	}
	if late > 500*units.Kbps {
		t.Errorf("post-collapse reconstruction %v, want ≈350kb/s", late)
	}
}

func TestObservedTraceCounterfactual(t *testing.T) {
	// Live an aggressive-estimator session through the Figure 4 collapse,
	// then ask what BBA-0 would have done on the same observed network:
	// the counterfactual must be stall-free, as the paper argues.
	step := trace.Step(5*units.Mbps, 350*units.Kbps, 25*time.Second, time.Hour)
	aggressive := abr.NewAggressiveControl()
	aggressive.SeedCapacity(5 * units.Mbps)
	original, events, stream := observedSession(t, aggressive, step)
	if original.StallTime == 0 {
		t.Fatal("the original session should have frozen (it is the Figure 4 scenario)")
	}
	observed, err := ObservedTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	counterfactual, err := Run(Config{
		Algorithm: abr.NewBBA0(), Stream: stream, Trace: observed, WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if counterfactual.Rebuffers != 0 {
		t.Errorf("BBA-0 on the observed network rebuffered %d times; the paper says this rebuffer was unnecessary", counterfactual.Rebuffers)
	}
	if counterfactual.Played == 0 {
		t.Error("counterfactual played nothing")
	}
}

func TestObservedTraceSelfReplayIsCalm(t *testing.T) {
	// Replaying the original algorithm against its own reconstruction is
	// not bit-identical (idle gaps are interpolated) but must land in the
	// same regime: similar average rate, no catastrophic divergence.
	res, events, stream := observedSession(t, abr.NewBBA2(), trace.Markov(trace.MarkovConfig{
		Base:     3 * units.Mbps,
		Sigma:    0.6,
		Duration: time.Hour,
		Floor:    300 * units.Kbps,
	}, rand.New(rand.NewSource(8))))
	observed, err := ObservedTrace(events)
	if err != nil {
		t.Fatal(err)
	}
	again, err := Run(Config{
		Algorithm: abr.NewBBA2(), Stream: stream, Trace: observed, WatchLimit: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := res.AvgRateKbps(), again.AvgRateKbps()
	if b < 0.6*a || b > 1.4*a {
		t.Errorf("self-replay diverged: %.0f vs %.0f kb/s", a, b)
	}
}
