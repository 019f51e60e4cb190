package soak

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"bba/internal/dash"
	"bba/internal/player"
	"bba/internal/telemetry"
)

// rec builds a baseline session record the tests then distort: its
// archive agrees with its journal, so only the invariant under test fails.
func rec(events ...telemetry.Event) *SessionRecord {
	r := &SessionRecord{
		Session:       "c0.s0.test",
		Algorithm:     "test",
		Result:        &player.Result{},
		MaxAttempts:   6,
		ChunkDuration: 500 * time.Millisecond,
		ChunkTimeout:  2 * time.Second,
	}
	setEvents(r, events...)
	return r
}

// setEvents replaces r's journal and archives exactly that journal.
func setEvents(r *SessionRecord, events ...telemetry.Event) {
	r.Events, r.Archive = events, nil
	for _, e := range events {
		r.Archive = telemetry.AppendJSONL(r.Archive, e)
	}
}

func ev(kind telemetry.Kind) telemetry.Event {
	return telemetry.Event{Kind: kind, Session: "c0.s0.test"}
}

func hasViolation(t *testing.T, vs []Violation, inv, detail string) {
	t.Helper()
	for _, v := range vs {
		if v.Invariant == inv && strings.Contains(v.Detail, detail) {
			return
		}
	}
	t.Fatalf("no %s violation containing %q in %v", inv, detail, vs)
}

func hasCheck(checked []string, inv string) bool {
	for _, c := range checked {
		if c == inv {
			return true
		}
	}
	return false
}

func TestCheckSessionCleanPass(t *testing.T) {
	r := rec(ev(telemetry.SessionStart), ev(telemetry.ChunkRequest), ev(telemetry.SessionEnd))
	vs, checked, skipped := CheckSession(r)
	if len(vs) != 0 {
		t.Fatalf("clean session violated: %v", vs)
	}
	for _, want := range []string{InvTerminates, InvDegradeTerminates, InvCollectorAgreement} {
		if !hasCheck(checked, want) {
			t.Errorf("%s not checked; checked=%v", want, checked)
		}
	}
	// Single endpoint, no reservoir reports: those invariants must not
	// count as evaluated.
	for _, skip := range []string{InvNoRebufferAboveReservoir, InvFailoverConverges} {
		if hasCheck(checked, skip) {
			t.Errorf("%s checked on a session it cannot apply to", skip)
		}
	}
	// … and must say so: every invariant is either checked or skipped.
	if want := []string{InvNoRebufferAboveReservoir, InvFailoverConverges}; !reflect.DeepEqual(skipped, want) {
		t.Errorf("skipped = %v, want %v", skipped, want)
	}
	if len(checked)+len(skipped) != len(InvariantNames()) {
		t.Errorf("checked %v + skipped %v do not partition the invariants", checked, skipped)
	}
}

func TestTerminates(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SessionRecord)
		detail string
	}{
		{"hard error", func(r *SessionRecord) { r.Err = errors.New("boom") }, "session error"},
		{"empty journal", func(r *SessionRecord) { r.Events = nil }, "no events"},
		{"missing start", func(r *SessionRecord) { r.Events = r.Events[1:] }, "does not open"},
		{"missing end", func(r *SessionRecord) { r.Events = r.Events[:len(r.Events)-1] }, "not session_end"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := rec(ev(telemetry.SessionStart), ev(telemetry.ChunkRequest), ev(telemetry.SessionEnd))
			tc.mutate(r)
			vs, checked, _ := CheckSession(r)
			if !hasCheck(checked, InvTerminates) {
				t.Fatal("terminates not checked")
			}
			hasViolation(t, vs, InvTerminates, tc.detail)
		})
	}
}

func TestDegradeBoundsRetries(t *testing.T) {
	r := rec(ev(telemetry.SessionStart), ev(telemetry.SessionEnd))
	r.MaxAttempts = 3 // budget: 2 retries per chunk
	retry := ev(telemetry.ChunkRetry)
	retry.Chunk = 4
	setEvents(r, ev(telemetry.SessionStart), retry, retry, retry, ev(telemetry.SessionEnd))
	vs, _, _ := CheckSession(r)
	hasViolation(t, vs, InvDegradeTerminates, "retried 3 times, budget 2")

	// Exactly at budget: fine.
	setEvents(r, ev(telemetry.SessionStart), retry, retry, ev(telemetry.SessionEnd))
	if vs, _, _ := CheckSession(r); len(vs) != 0 {
		t.Fatalf("within-budget retries violated: %v", vs)
	}
}

func TestDegradeIncompleteNeedsOutageMarker(t *testing.T) {
	r := rec(ev(telemetry.SessionStart), ev(telemetry.SessionEnd))
	r.Result = &player.Result{Incomplete: true}
	vs, _, _ := CheckSession(r)
	hasViolation(t, vs, InvDegradeTerminates, "no outage rebuffer marker")

	marker := ev(telemetry.RebufferStart)
	marker.Label = "outage"
	setEvents(r, ev(telemetry.SessionStart), marker, ev(telemetry.SessionEnd))
	if vs, _, _ := CheckSession(r); len(vs) != 0 {
		t.Fatalf("marked incomplete session violated: %v", vs)
	}
}

func TestReservoirInvariant(t *testing.T) {
	reservoir := ev(telemetry.ReservoirUpdate)
	reservoir.Reservoir = time.Second
	sample := ev(telemetry.BufferSample)
	sample.Buffer = 10 * time.Second
	stall := ev(telemetry.RebufferStart)
	stall.Chunk = 5

	// Buffer far above reservoir+slack when the stall begins: breach.
	r := rec(ev(telemetry.SessionStart), reservoir, sample, stall, ev(telemetry.SessionEnd))
	vs, checked, skipped := CheckSession(r)
	if !hasCheck(checked, InvNoRebufferAboveReservoir) || hasCheck(skipped, InvNoRebufferAboveReservoir) {
		t.Fatal("reservoir invariant not checked despite a reservoir report")
	}
	hasViolation(t, vs, InvNoRebufferAboveReservoir, "above reservoir")

	// The same stall on a chunk that needed retries is the degrade
	// path's business, not the reservoir claim's.
	retry := ev(telemetry.ChunkRetry)
	retry.Chunk = 5
	setEvents(r, ev(telemetry.SessionStart), reservoir, sample, retry, stall, ev(telemetry.SessionEnd))
	if vs, _, _ := CheckSession(r); len(vs) != 0 {
		t.Fatalf("retried-chunk stall violated: %v", vs)
	}

	// An outage-labelled stall is exempt too.
	outage := stall
	outage.Label = "outage"
	setEvents(r, ev(telemetry.SessionStart), reservoir, sample, outage, ev(telemetry.SessionEnd))
	if vs, _, _ := CheckSession(r); len(vs) != 0 {
		t.Fatalf("outage stall violated: %v", vs)
	}

	// Low buffer at stall time: the paper permits it.
	low := ev(telemetry.BufferSample)
	low.Buffer = 200 * time.Millisecond
	setEvents(r, ev(telemetry.SessionStart), reservoir, low, stall, ev(telemetry.SessionEnd))
	if vs, _, _ := CheckSession(r); len(vs) != 0 {
		t.Fatalf("low-buffer stall violated: %v", vs)
	}

	// No reservoir report at all (estimator algorithms): not applicable.
	setEvents(r, ev(telemetry.SessionStart), sample, stall, ev(telemetry.SessionEnd))
	vs, checked, skipped = CheckSession(r)
	if hasCheck(checked, InvNoRebufferAboveReservoir) || !hasCheck(skipped, InvNoRebufferAboveReservoir) {
		t.Fatal("reservoir invariant checked, or not reported skipped, without a reservoir report")
	}
	if len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestFailoverConverges(t *testing.T) {
	away := ev(telemetry.Failover)
	away.RateIndex = 1
	back := ev(telemetry.Failover)
	back.RateIndex = 0

	r := rec(ev(telemetry.SessionStart), away, ev(telemetry.SessionEnd))
	r.TailChunks = dash.FailBackAfter
	vs, checked, skipped := CheckSession(r)
	if !hasCheck(checked, InvFailoverConverges) || hasCheck(skipped, InvFailoverConverges) {
		t.Fatal("failover invariant not checked with a full fail-back tail")
	}
	hasViolation(t, vs, InvFailoverConverges, "ended on endpoint 1")

	// A tail too short for a full fail-back streak makes convergence
	// undecidable: the same non-converged journal is not checked at all.
	r.TailChunks = dash.FailBackAfter - 1
	vs, checked, skipped = CheckSession(r)
	if hasCheck(checked, InvFailoverConverges) || !hasCheck(skipped, InvFailoverConverges) {
		t.Fatalf("failover invariant checked, or not reported skipped, with tail %d < %d", r.TailChunks, dash.FailBackAfter)
	}
	if len(vs) != 0 {
		t.Fatalf("undecidable-tail session violated: %v", vs)
	}
	r.TailChunks = dash.FailBackAfter

	setEvents(r, ev(telemetry.SessionStart), away, back, ev(telemetry.SessionEnd))
	if vs, _, _ := CheckSession(r); len(vs) != 0 {
		t.Fatalf("converged session violated: %v", vs)
	}

	// No failover at all converges vacuously.
	setEvents(r, ev(telemetry.SessionStart), ev(telemetry.SessionEnd))
	if vs, _, _ := CheckSession(r); len(vs) != 0 {
		t.Fatalf("failover-free session violated: %v", vs)
	}
}

func TestCollectorAgreement(t *testing.T) {
	r := rec(ev(telemetry.SessionStart), ev(telemetry.ChunkRequest), ev(telemetry.SessionEnd))
	archived := r.Archive
	vs, checked, skipped := CheckSession(r)
	if !hasCheck(checked, InvCollectorAgreement) || hasCheck(skipped, InvCollectorAgreement) {
		t.Fatal("collector invariant not checked despite an archive")
	}
	if len(vs) != 0 {
		t.Fatalf("byte-identical archive violated: %v", vs)
	}

	// Nothing archived and nothing dropped is a loss, not a skip.
	r.Archive = nil
	vs, checked, skipped = CheckSession(r)
	if !hasCheck(checked, InvCollectorAgreement) || hasCheck(skipped, InvCollectorAgreement) {
		t.Fatal("collector invariant skipped on a session whose journal reached no archive")
	}
	hasViolation(t, vs, InvCollectorAgreement, "!= local journal")

	r.Archive = archived[:len(archived)-2]
	vs, _, _ = CheckSession(r)
	hasViolation(t, vs, InvCollectorAgreement, "!= local journal")

	r.Archive = archived
	r.Dropped = 3
	vs, _, _ = CheckSession(r)
	hasViolation(t, vs, InvCollectorAgreement, "dropped 3")
}

func TestInvariantNamesCoverChecks(t *testing.T) {
	names := InvariantNames()
	if len(names) != 5 {
		t.Fatalf("expected 5 invariants, got %v", names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate invariant name %q", n)
		}
		seen[n] = true
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Invariant: InvTerminates, Session: "c1.s2.BBA-1", Detail: "no events captured"}
	if got := v.String(); got != "terminates: c1.s2.BBA-1: no events captured" {
		t.Fatalf("String() = %q", got)
	}
}
