// Package faults is the deterministic fault-injection subsystem: a
// seed-driven generator of fault schedules — link blackouts, throughput
// collapse, latency spikes, HTTP 5xx bursts, stalled (slowloris) chunk
// bodies and mid-download connection resets — plus the injectors that
// apply a schedule at every layer of the stack.
//
// The paper's core resilience claim (§4, §6, and the companion tech
// report "Using the Buffer to Avoid Rebuffers", arXiv:1401.2209) is that
// buffer-based adaptation rides out capacity collapse and transient
// outages that capacity-estimation controllers mishandle; Arye et al.
// (arXiv:1901.00038) show real-world QoE losses are dominated by exactly
// these transport-level pathologies. Until now the repo could only express
// outages as hand-built zero-rate trace segments; this package makes the
// fault process a first-class, seeded model a campaign can treat like any
// other experimental variable.
//
// Layer mapping. Each fault kind is injected where it is observable:
//
//   - Blackout, Collapse, LatencySpike are capacity faults: they compose
//     with trace.Trace via Schedule.ApplyToTrace, which both the
//     virtual-time player and the netem.Shaper-shaped real HTTP path
//     consume.
//   - ServerError, StallBody, ConnReset are HTTP-path pathologies: a
//     SessionInjector decides per chunk attempt whether one fails, for the
//     simulated player and, through HTTPInjector, for the dash server,
//     which acts the decision out on the live request.
//
// Determinism. Every decision is a pure function of a seed, the session
// clock and discrete coordinates (chunk index, attempt number) — never the
// wall clock — so the same experiment seed and fault seed reproduce the
// same fault history at any parallelism, and a session's faults over a
// socket replay in player.Run. An origin keys each session by
// stats.Mix(origin seed, session), so sessions do not share fault draws.
package faults

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"bba/internal/trace"
)

// Kind identifies a fault type.
type Kind uint8

// The fault taxonomy.
const (
	// Blackout forces link capacity to zero for the episode — a DSL
	// retrain, a WiFi interference burst, a transit outage.
	Blackout Kind = iota + 1
	// Collapse multiplies link capacity by Factor (0 < Factor < 1) — the
	// sustained congestion episodes behind Figure 1's deep fades.
	Collapse
	// LatencySpike adds Latency of first-byte delay to every request in
	// the episode (bufferbloat, rerouting). The virtual player charges it
	// per chunk via the SessionInjector; the real path pays it per request
	// via the origin's HTTPInjector.
	LatencySpike
	// ServerError makes chunk requests fail with HTTP 503 for the episode
	// — an overloaded or misconfigured edge.
	ServerError
	// StallBody starts the response then stops delivering mid-body
	// (slowloris): the client sees progress, then nothing, until its
	// per-chunk timeout fires.
	StallBody
	// ConnReset drops the connection mid-download, after part of the body
	// has arrived.
	ConnReset
)

var kindNames = [...]string{
	Blackout:     "blackout",
	Collapse:     "collapse",
	LatencySpike: "latency_spike",
	ServerError:  "server_error",
	StallBody:    "stall_body",
	ConnReset:    "conn_reset",
}

// String returns the snake_case name used in telemetry labels.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// IsCapacity reports whether the kind is a capacity fault (applied through
// the trace) rather than an HTTP-path pathology.
func (k Kind) IsCapacity() bool {
	return k == Blackout || k == Collapse || k == LatencySpike
}

// Fault is one scheduled fault episode on the session clock.
type Fault struct {
	Kind  Kind
	Start time.Duration
	// Duration is the episode length.
	Duration time.Duration
	// Factor is the capacity multiplier of a Collapse (0 < Factor < 1).
	Factor float64
	// Latency is the added first-byte delay of a LatencySpike.
	Latency time.Duration
}

// End returns the episode's end on the session clock.
func (f Fault) End() time.Duration { return f.Start + f.Duration }

func (f Fault) validate(i int) error {
	if f.Kind < Blackout || f.Kind > ConnReset {
		return fmt.Errorf("faults: episode %d has unknown kind %d", i, f.Kind)
	}
	if f.Start < 0 {
		return fmt.Errorf("faults: episode %d starts before zero", i)
	}
	if f.Duration <= 0 {
		return fmt.Errorf("faults: episode %d has non-positive duration %v", i, f.Duration)
	}
	if f.Kind == Collapse && (f.Factor <= 0 || f.Factor >= 1) {
		return fmt.Errorf("faults: episode %d collapse factor %v outside (0,1)", i, f.Factor)
	}
	if f.Kind == LatencySpike && f.Latency <= 0 {
		return fmt.Errorf("faults: episode %d latency spike without latency", i)
	}
	return nil
}

// Schedule is a start-ordered set of fault episodes. Episodes of different
// kinds may overlap; episodes of the same kind may not. Nothing changes a
// schedule NewSchedule or Generate returns; only Regenerate rewrites one,
// and only the schedule its caller owns.
type Schedule struct {
	faults []Fault
	// spans are the capacity faults flattened into trace overrides,
	// derived once per schedule (see capacitySpans).
	spans []trace.Override
}

// NewSchedule validates and sorts the episodes into a Schedule.
func NewSchedule(fs []Fault) (*Schedule, error) {
	s := &Schedule{faults: append(make([]Fault, 0, len(fs)), fs...)}
	if err := s.settle(); err != nil {
		return nil, err
	}
	return s, nil
}

// settle sorts the episodes s holds by start, validates them and derives
// their capacity spans, all in s's own storage.
func (s *Schedule) settle() error {
	slices.SortStableFunc(s.faults, func(a, b Fault) int { return cmp.Compare(a.Start, b.Start) })
	var lastEnd [ConnReset + 1]time.Duration
	var seen [ConnReset + 1]bool
	for i, f := range s.faults {
		if err := f.validate(i); err != nil {
			return err
		}
		if seen[f.Kind] && f.Start < lastEnd[f.Kind] {
			return fmt.Errorf("faults: episode %d overlaps a previous %s episode", i, f.Kind)
		}
		seen[f.Kind], lastEnd[f.Kind] = true, f.End()
	}
	s.capacitySpans()
	return nil
}

// MustSchedule is NewSchedule but panics on error, for tests and literals.
func MustSchedule(fs []Fault) *Schedule {
	s, err := NewSchedule(fs)
	if err != nil {
		panic(err)
	}
	return s
}

// Faults returns a copy of the episodes in start order.
func (s *Schedule) Faults() []Fault {
	out := make([]Fault, len(s.faults))
	copy(out, s.faults)
	return out
}

// Len returns the number of episodes.
func (s *Schedule) Len() int { return len(s.faults) }

// Empty reports whether the schedule has no episodes.
func (s *Schedule) Empty() bool { return s == nil || len(s.faults) == 0 }

// Active returns the episode of the given kind covering time at, if any.
func (s *Schedule) Active(kind Kind, at time.Duration) (Fault, bool) {
	if s == nil {
		return Fault{}, false
	}
	// Episodes are start-ordered; the set is small (a handful per hour),
	// so a linear scan with an early exit beats maintaining per-kind
	// indices.
	for _, f := range s.faults {
		if f.Start > at {
			break
		}
		if f.Kind == kind && at < f.End() {
			return f, true
		}
	}
	return Fault{}, false
}

// ActiveHTTP returns the HTTP-path episode (ServerError, StallBody or
// ConnReset) covering time at, preferring the earliest-starting one.
func (s *Schedule) ActiveHTTP(at time.Duration) (Fault, bool) {
	if s == nil {
		return Fault{}, false
	}
	for _, f := range s.faults {
		if f.Start > at {
			break
		}
		if !f.Kind.IsCapacity() && at < f.End() {
			return f, true
		}
	}
	return Fault{}, false
}

// TotalOutage sums the blackout time scheduled before horizon — the
// protection budget a resilient session must be able to ride out.
func (s *Schedule) TotalOutage(horizon time.Duration) time.Duration {
	if s == nil {
		return 0
	}
	var total time.Duration
	for _, f := range s.faults {
		if f.Kind != Blackout || f.Start >= horizon {
			continue
		}
		end := f.End()
		if end > horizon {
			end = horizon
		}
		total += end - f.Start
	}
	return total
}

// capacityAt returns the multiplicative capacity factor the schedule's
// capacity faults impose at time at: 0 during a blackout, Factor during a
// collapse, 1 otherwise. Latency spikes are charged per request by the
// injectors, not through the trace.
func (s *Schedule) capacityAt(at time.Duration) float64 {
	if _, ok := s.Active(Blackout, at); ok {
		return 0
	}
	if f, ok := s.Active(Collapse, at); ok {
		return f.Factor
	}
	return 1
}
