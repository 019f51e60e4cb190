package soak

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"bba/internal/telemetry"
)

// TestRunCycleClean drives one full cycle — real origin, real sockets,
// netem-shaped transports, real collector pipeline — with fault
// injection off, and demands a clean bill: every invariant that applies
// evaluated, zero violations, collector archive byte-identical.
func TestRunCycleClean(t *testing.T) {
	r := NewRunner(Config{
		Sessions:       4,
		Seed:           11,
		Watch:          2 * time.Second,
		ChunkMS:        250,
		ShapeKbps:      20000,
		Algorithms:     []string{"BBA-0", "Control", "BBA-2", "SmoothThroughput"},
		DisableFaults:  true,
		CollectorCheck: true,
		Logf:           t.Logf,
	})
	r.Metrics = NewMetrics()
	capture := &telemetry.Capture{}
	r.Observer = capture

	c, err := r.RunCycle(context.Background(), 0)
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if !c.Pass() {
		for _, v := range c.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal("cycle failed")
	}
	if got := c.Checks[InvTerminates]; got != 4 {
		t.Errorf("terminates checked %d times, want 4", got)
	}
	if got := c.Checks[InvCollectorAgreement]; got != 4 {
		t.Errorf("collector agreement checked %d times, want 4", got)
	}
	if got := c.Checks[InvFailoverConverges]; got != 0 {
		t.Errorf("failover checked %d times on a single-endpoint cycle, want 0", got)
	}
	for i := range c.Sessions {
		s := &c.Sessions[i]
		if s.Err != nil {
			t.Errorf("%s: session error %v", s.Session, s.Err)
		}
		if len(s.Events) == 0 {
			t.Errorf("%s: empty journal", s.Session)
		}
		if len(s.Archive) == 0 {
			t.Errorf("%s: empty collector archive", s.Session)
		}
		if s.Result == nil || s.Result.Played <= 0 {
			t.Errorf("%s: no video delivered", s.Session)
		}
	}

	// The runner journals its own verdicts in the session vocabulary.
	var last telemetry.Event
	for _, e := range capture.Events {
		last = e
	}
	if last.Kind != telemetry.SoakCycle || last.Label != "pass" {
		t.Errorf("expected a trailing pass soak_cycle event, got %+v", last)
	}

	// And the metrics endpoint reflects the cycle.
	rec := httptest.NewRecorder()
	r.Metrics.ServeHTTP(rec, nil)
	body := rec.Body.String()
	for _, want := range []string{
		"soak_cycles_total 1",
		"soak_cycle_failures_total 0",
		"soak_sessions_total 4",
		`soak_invariant_checks_total{invariant="terminates"} 4`,
		"soak_consecutive_cycle_failures 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	hrec := httptest.NewRecorder()
	r.Metrics.Healthz().ServeHTTP(hrec, nil)
	if hrec.Code != 200 || !strings.Contains(hrec.Body.String(), `"status":"ok"`) {
		t.Errorf("healthz = %d %q, want 200 ok", hrec.Code, hrec.Body.String())
	}
}

// TestRunCycleFaulted runs the full weather: primary origin with seeded
// HTTP faults, clean secondary for failover, client-side blackouts. The
// invariants must hold — retries bounded, failover converging back to
// the primary, no rebuffer above reservoir+slack.
func TestRunCycleFaulted(t *testing.T) {
	r := NewRunner(Config{
		Sessions:  3,
		Seed:      5,
		Watch:     5 * time.Second,
		ChunkMS:   250,
		ShapeKbps: 20000,
		Logf:      t.Logf,
	})
	c, err := r.RunCycle(context.Background(), 1)
	if err != nil {
		t.Fatalf("RunCycle: %v", err)
	}
	if !c.Pass() {
		for _, v := range c.Violations {
			t.Errorf("violation: %s", v)
		}
		t.Fatal("faulted cycle failed")
	}
	if got := c.Checks[InvFailoverConverges]; got != 3 {
		t.Errorf("failover checked %d times, want 3 (two endpoints per session)", got)
	}
	if got := c.Checks[InvTerminates]; got != 3 {
		t.Errorf("terminates checked %d times, want 3", got)
	}
}

// TestRunCountsFailures exercises the driver loop's verdict counting
// with a runner whose sessions cannot reach their origin.
func TestRunCountsFailures(t *testing.T) {
	// A base URL nothing listens on: every session errs, every cycle
	// fails, but the infrastructure is fine — Run reports counts.
	r := NewRunner(Config{
		Sessions:   2,
		Seed:       3,
		Watch:      time.Second,
		BaseURL:    "http://127.0.0.1:1",
		Algorithms: []string{"Control"},
	})
	r.Metrics = NewMetrics()
	failed, undecided, err := r.Run(context.Background(), 2, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if failed != 2 {
		t.Fatalf("failed = %d, want 2", failed)
	}
	if len(undecided) != 0 {
		t.Errorf("undecided = %v: an external origin, an estimator and no collector gate nothing", undecided)
	}
	if r.Metrics.Healthy() {
		t.Error("metrics report healthy after consecutive failing cycles")
	}
	rec := httptest.NewRecorder()
	r.Metrics.Healthz().ServeHTTP(rec, nil)
	if rec.Code != 503 {
		t.Errorf("healthz = %d after failures, want 503", rec.Code)
	}
}

// TestGatedInvariants: what a bounded run must have decided at least once
// follows from the configuration alone.
func TestGatedInvariants(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want []string
	}{
		{"defaults", Config{CollectorCheck: true}, []string{InvNoRebufferAboveReservoir, InvFailoverConverges, InvCollectorAgreement}},
		{"no faults, fixed-reservoir and estimator arms", Config{Sessions: 2, Algorithms: []string{"BBA-0", "Control"}, DisableFaults: true, CollectorCheck: true}, []string{InvCollectorAgreement}},
		{"external origin", Config{BaseURL: "http://127.0.0.1:1", Algorithms: []string{"BBA-2"}}, []string{InvNoRebufferAboveReservoir}},
		{"rotation never reaches the BBA arm", Config{Sessions: 1, Algorithms: []string{"Control", "BBA-2"}, DisableFaults: true}, nil},
	} {
		if got := NewRunner(tc.cfg).Config().gated(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: gated = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRunUnboundedStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Config{Sessions: 1, Watch: time.Second, BaseURL: "http://127.0.0.1:1"})
	failed, _, err := r.Run(ctx, 0, time.Hour)
	if err != nil {
		t.Fatalf("cancelled unbounded run must exit clean, got %v", err)
	}
	_ = failed
}

func TestMixDeterminism(t *testing.T) {
	if mix(1, 2) != mix(1, 2) {
		t.Fatal("mix is not deterministic")
	}
	if mix(1, 2) == mix(1, 3) || mix(1, 2) == mix(2, 2) {
		t.Fatal("mix collides on adjacent inputs")
	}
	if mix(7, 9) < 0 {
		t.Fatal("mix produced a negative seed")
	}
	// Pinned before the mixer moved to stats.SplitMix64: cycle and session
	// seeds are bit-unchanged.
	if got := mix(2014, 3, 9); got != 5096406068047940140 {
		t.Fatalf("mix(2014, 3, 9) = %d, want 5096406068047940140", got)
	}
}

func TestProjectAndRender(t *testing.T) {
	events := []telemetry.Event{
		{Kind: telemetry.SessionStart, Session: "s"},
		{Kind: telemetry.BufferSample, Session: "s", Buffer: time.Second}, // timing: dropped
		{Kind: telemetry.ChunkRequest, Session: "s", Chunk: 0, RateIndex: 2, Rate: 1000, Bytes: 125},
		{Kind: telemetry.RateSwitch, Session: "s", Chunk: 1, RateIndex: 3, PrevRateIndex: 2},
		{Kind: telemetry.RebufferStart, Session: "s"}, // timing: dropped
		{Kind: telemetry.SessionEnd, Session: "s", Label: "done"},
	}
	p := Project(events)
	if len(p) != 4 {
		t.Fatalf("projected %d events, want 4: %v", len(p), p)
	}
	out := Render(p)
	if strings.Contains(out, "buffer_sample") || strings.Contains(out, "rebuffer") {
		t.Fatalf("projection kept a timing event:\n%s", out)
	}
	for _, want := range []string{
		"session_start s",
		"chunk_request s chunk=0 rate_index=2 prev=0 rate=1000 bytes=125",
		"rate_switch s chunk=1 rate_index=3 prev=2",
		`label="done"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered projection missing %q:\n%s", want, out)
		}
	}
	if Render(Project(events)) != out {
		t.Fatal("Render is not deterministic")
	}
}

func TestFilterSession(t *testing.T) {
	var archive []byte
	a := telemetry.Event{Kind: telemetry.SessionStart, Session: "c0.s1.A"}
	b := telemetry.Event{Kind: telemetry.SessionStart, Session: "c0.s11.A"} // superstring name
	archive = telemetry.AppendJSONL(archive, a)
	archive = telemetry.AppendJSONL(archive, b)
	archive = telemetry.AppendJSONL(archive, a)

	var want []byte
	want = telemetry.AppendJSONL(want, a)
	want = telemetry.AppendJSONL(want, a)
	if got := filterSession(archive, "c0.s1.A"); string(got) != string(want) {
		t.Fatalf("filterSession mixed sessions:\n got %q\nwant %q", got, want)
	}
}
