package soak

import (
	"bytes"
	"fmt"
	"time"

	"bba/internal/dash"
	"bba/internal/telemetry"
)

// The invariant names, as they appear in Violation.Invariant, the
// soak_invariant_* metric labels and SLOBreach event labels.
const (
	// InvTerminates: every session's journal is properly bracketed — it
	// opens with SessionStart, closes with SessionEnd, and the session
	// returned no hard error. A session that hangs, panics or tears down
	// without its closing event breaks the daemon's most basic promise.
	InvTerminates = "terminates"
	// InvNoRebufferAboveReservoir: the paper's central claim, checked on
	// live journals. A capacity-driven rebuffer (one whose chunk needed
	// no retries — fault-path stalls are the bounded-retry invariant's
	// business) must not begin while the buffer sits above the
	// algorithm's last reported reservoir plus the cycle's slack. The
	// slack covers everything physics permits without an algorithm bug:
	// the session's total scheduled blackout time, one chunk duration,
	// and the per-attempt timeout that bounds any zero-retry download.
	InvNoRebufferAboveReservoir = "no_rebuffer_above_reservoir"
	// InvFailoverConverges: a session that failed over must converge back
	// to the primary endpoint (index 0) by session end — the fault window
	// closes early in the cycle precisely so the fail-back streak has
	// room to complete. Checked only when the fault-free tail holds at
	// least dash.FailBackAfter chunk fetches; shorter windows cannot
	// decide convergence.
	InvFailoverConverges = "failover_converges"
	// InvDegradeTerminates: the degrade path is bounded. No chunk may
	// accumulate more retries than the attempt budget allows, and a
	// session that gives up (Incomplete) must have marked the give-up
	// with an outage rebuffer — degraded sessions end, they do not spin.
	InvDegradeTerminates = "degrade_terminates"
	// InvCollectorAgreement: what the collector archived for the session
	// byte-equals the locally captured journal, with zero shipper-side
	// loss — the fleet-collection pipeline neither drops nor distorts.
	InvCollectorAgreement = "collector_agreement"
)

// InvariantNames lists every invariant in reporting order.
func InvariantNames() []string {
	return []string{
		InvTerminates,
		InvNoRebufferAboveReservoir,
		InvFailoverConverges,
		InvDegradeTerminates,
		InvCollectorAgreement,
	}
}

// Violation is one invariant breach in one session's journal.
type Violation struct {
	// Invariant is the Inv* name.
	Invariant string
	// Session is the offending session's label.
	Session string
	// Detail explains the breach.
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Invariant, v.Session, v.Detail)
}

// CheckSession evaluates every applicable invariant against one session
// record. It returns the violations found, the names of the invariants
// that were actually evaluated, and the names of those that were not — an
// invariant that does not apply or cannot be decided (single endpoint or a
// fault-free tail too short for a fail-back streak, no reservoir reports)
// is neither checked nor violated, and says so. Collector agreement is
// decided on every session: every cycle ships every session into a store,
// so an empty archive for a non-empty journal is a loss, not a skip.
func CheckSession(rec *SessionRecord) (violations []Violation, checked, skipped []string) {
	add := func(inv, detail string) {
		violations = append(violations, Violation{Invariant: inv, Session: rec.Session, Detail: detail})
	}

	checked = append(checked, InvTerminates)
	switch {
	case rec.Err != nil:
		add(InvTerminates, fmt.Sprintf("session error: %v", rec.Err))
	case len(rec.Events) == 0:
		add(InvTerminates, "no events captured")
	case rec.Events[0].Kind != telemetry.SessionStart:
		add(InvTerminates, "journal does not open with session_start")
	case rec.Events[len(rec.Events)-1].Kind != telemetry.SessionEnd:
		add(InvTerminates, fmt.Sprintf("journal ends with %s, not session_end", rec.Events[len(rec.Events)-1].Kind))
	}

	if len(rec.Events) > 0 {
		checked = append(checked, InvDegradeTerminates)
		violations = append(violations, checkDegrade(rec)...)

		if vs, applied := checkReservoir(rec); applied {
			checked = append(checked, InvNoRebufferAboveReservoir)
			violations = append(violations, vs...)
		}
	}

	// Convergence is only decidable when the fault-free tail could hold a
	// complete fail-back streak: a failover at the very end of the fault
	// horizon still needs dash.FailBackAfter successful fetches to return
	// to the primary. In tighter windows a session parked on the
	// secondary is not wrong, just unfinished, so the invariant does not
	// bind.
	if rec.TailChunks >= dash.FailBackAfter {
		checked = append(checked, InvFailoverConverges)
		violations = append(violations, checkFailover(rec)...)
	}

	checked = append(checked, InvCollectorAgreement)
	violations = append(violations, checkCollector(rec)...)
names:
	for _, name := range InvariantNames() {
		for _, c := range checked {
			if c == name {
				continue names
			}
		}
		skipped = append(skipped, name)
	}
	return violations, checked, skipped
}

// checkDegrade bounds the retry/degrade path: per-chunk retries within
// the attempt budget, and an Incomplete session explicitly marked with
// an outage rebuffer.
func checkDegrade(rec *SessionRecord) (violations []Violation) {
	retries := make(map[int]int)
	sawOutage := false
	for _, e := range rec.Events {
		switch e.Kind {
		case telemetry.ChunkRetry:
			retries[e.Chunk]++
		case telemetry.RebufferStart:
			if e.Label == "outage" {
				sawOutage = true
			}
		}
	}
	budget := rec.MaxAttempts - 1
	if budget <= 0 {
		budget = 1
	}
	for chunk, n := range retries {
		if n > budget {
			violations = append(violations, Violation{
				Invariant: InvDegradeTerminates, Session: rec.Session,
				Detail: fmt.Sprintf("chunk %d retried %d times, budget %d", chunk, n, budget),
			})
		}
	}
	if rec.Result != nil && rec.Result.Incomplete && !sawOutage {
		violations = append(violations, Violation{
			Invariant: InvDegradeTerminates, Session: rec.Session,
			Detail: "incomplete session has no outage rebuffer marker",
		})
	}
	return violations
}

// checkReservoir walks the journal asserting the paper's claim on every
// capacity-driven rebuffer. applied is false when the session never
// reported a reservoir (estimator algorithms), in which case the
// invariant does not bind.
func checkReservoir(rec *SessionRecord) (violations []Violation, applied bool) {
	slack := rec.OutageBudget + rec.ChunkDuration + rec.ChunkTimeout
	retried := make(map[int]bool)
	for _, e := range rec.Events {
		if e.Kind == telemetry.ChunkRetry {
			retried[e.Chunk] = true
		}
	}
	var (
		reservoir     time.Duration
		haveReservoir bool
		lastBuffer    time.Duration
	)
	for _, e := range rec.Events {
		switch e.Kind {
		case telemetry.ReservoirUpdate:
			reservoir = e.Reservoir
			haveReservoir = true
			applied = true
		case telemetry.BufferSample:
			lastBuffer = e.Buffer
		case telemetry.RebufferStart:
			if e.Label == "outage" || !haveReservoir || retried[e.Chunk] {
				// Outages and fault-path stalls are the degrade
				// invariant's domain; before the first reservoir report
				// there is no claim to check.
				continue
			}
			if lastBuffer > reservoir+slack {
				violations = append(violations, Violation{
					Invariant: InvNoRebufferAboveReservoir, Session: rec.Session,
					Detail: fmt.Sprintf("rebuffer at chunk %d with buffer %v above reservoir %v + slack %v",
						e.Chunk, lastBuffer, reservoir, slack),
				})
			}
		}
	}
	return violations, applied
}

// checkFailover asserts convergence: the last endpoint switch of a
// multi-endpoint session lands back on the primary.
func checkFailover(rec *SessionRecord) (violations []Violation) {
	last := -1
	for _, e := range rec.Events {
		if e.Kind == telemetry.Failover {
			last = e.RateIndex // Failover carries endpoint indices in the rate fields
		}
	}
	if last > 0 {
		violations = append(violations, Violation{
			Invariant: InvFailoverConverges, Session: rec.Session,
			Detail: fmt.Sprintf("session ended on endpoint %d, not the primary", last),
		})
	}
	return violations
}

// checkCollector re-encodes the local capture with the canonical journal
// encoding and demands that what the store archived for the session be
// byte-identical, with zero shipper loss.
func checkCollector(rec *SessionRecord) (violations []Violation) {
	if rec.Dropped > 0 {
		violations = append(violations, Violation{
			Invariant: InvCollectorAgreement, Session: rec.Session,
			Detail: fmt.Sprintf("shipper dropped %d events/frames", rec.Dropped),
		})
		return violations
	}
	var local []byte
	for _, e := range rec.Events {
		local = telemetry.AppendJSONL(local, e)
	}
	if !bytes.Equal(local, rec.Archive) {
		violations = append(violations, Violation{
			Invariant: InvCollectorAgreement, Session: rec.Session,
			Detail: fmt.Sprintf("archive (%d bytes) != local journal (%d bytes)", len(rec.Archive), len(local)),
		})
	}
	return violations
}
