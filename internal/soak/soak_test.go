package soak

import (
	"bytes"
	"context"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"bba/internal/archive"
	"bba/internal/telemetry"
)

// TestRunCycleClean drives one full cycle under the full weather — a
// primary origin with seeded HTTP faults, a clean secondary, client-side
// blackouts, real sockets, netem-shaped transports, the collector pipeline
// into an archive store — and demands a clean bill: zero violations,
// failover decided on every session (a 3 s watch at 250 ms chunks leaves a
// 9-chunk fault-free tail, room for dash.FailBackAfter), the store's
// read-back byte-identical, a block sealed, and no store left on disk.
func TestRunCycleClean(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	r := NewRunner(Config{
		Sessions:   4,
		Seed:       11,
		Watch:      3 * time.Second,
		ChunkMS:    250,
		ShapeKbps:  20000,
		Algorithms: []string{"BBA-0", "Control", "BBA-2", "SmoothThroughput"},
		Logf:       t.Logf,
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
	if got := c.Checks[InvFailoverConverges]; got != 4 {
		t.Errorf("failover checked %d times, want 4 (two endpoints and a fail-back tail per session)", got)
	}
	if c.Store.Blocks < 1 {
		t.Errorf("cycle store %+v sealed no block: compaction never ran", c.Store)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("cycle left %v behind in its temp dir (%v): a daemon would fill the disk", left, err)
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

// TestRunCycleFaulted runs the full weather with the default algorithm
// rotation: primary origin with seeded HTTP faults, clean secondary for
// failover, client-side blackouts. The invariants must hold — retries
// bounded, failover converging back to the primary, no rebuffer above
// reservoir+slack.
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
// with a runner whose sessions cannot start.
func TestRunCountsFailures(t *testing.T) {
	// An algorithm no registry holds: every session errs, every cycle
	// fails, but the infrastructure is fine — Run reports counts.
	r := NewRunner(Config{
		Sessions:   2,
		Seed:       3,
		Watch:      time.Second,
		Algorithms: []string{"no-such-algorithm"},
	})
	r.Metrics = NewMetrics()
	failed, undecided, err := r.Run(context.Background(), 2, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if failed != 2 {
		t.Fatalf("failed = %d, want 2", failed)
	}
	if want := []string{InvFailoverConverges}; !reflect.DeepEqual(undecided, want) {
		t.Errorf("undecided = %v, want %v: a 1 s watch leaves no fail-back tail, and collector agreement is decided on every session", undecided, want)
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
		{"defaults", Config{}, []string{InvNoRebufferAboveReservoir, InvFailoverConverges, InvCollectorAgreement}},
		{"rotation never reaches the BBA arm", Config{Sessions: 1, Algorithms: []string{"Control", "BBA-2"}}, []string{InvFailoverConverges, InvCollectorAgreement}},
	} {
		if got := NewRunner(tc.cfg).Config().gated(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: gated = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestRunUnboundedStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRunner(Config{Sessions: 1, Watch: time.Second})
	failed, _, err := r.Run(ctx, 0, time.Hour)
	if err != nil {
		t.Fatalf("cancelled unbounded run must exit clean, got %v", err)
	}
	_ = failed
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

// TestReadBack: a cycle's read-back returns each session's exact bytes in
// admission order from sealed blocks and the WAL tail alike, never a
// session whose label merely contains the queried one, and reads a run the
// store has never seen as empty.
func TestReadBack(t *testing.T) {
	store, err := archive.Open(archive.Config{Dir: t.TempDir(), CompactEvents: CompactEvents})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	const run = "soak-c0"
	sessions := []string{"c0.s1.A", "c0.s11.A"} // a label and its superstring
	want := make(map[string][]byte)
	for i := 0; i < CompactEvents*5/4; i++ {
		s := sessions[i%2]
		e := telemetry.Event{Kind: telemetry.ChunkRequest, Session: s, Chunk: i, RateIndex: i % 3, PrevRateIndex: -1, Bytes: int64(1000 + i)}
		batch := telemetry.AppendJSONL(nil, e)
		want[s] = append(want[s], batch...)
		if err := store.Append(run, batch); err != nil {
			t.Fatal(err)
		}
	}
	if st := store.Stats(); len(st) != 1 || st[0].Blocks < 1 || st[0].WALEvents < 1 {
		t.Fatalf("store stats %+v, want a sealed block and a non-empty WAL tail", st)
	}
	for _, s := range sessions {
		got, err := readBack(store, run, s)
		if err != nil {
			t.Fatalf("readBack %s: %v", s, err)
		}
		if !bytes.Equal(got, want[s]) {
			t.Errorf("readBack %s:\n got %q\nwant %q", s, got, want[s])
		}
	}
	if got, err := readBack(store, "soak-c1", sessions[0]); err != nil || len(got) != 0 {
		t.Errorf("readBack of an unknown run = %q, %v; want empty, nil", got, err)
	}
}
