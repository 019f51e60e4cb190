// Package telemetry is the structured session-event layer: every
// interesting moment of a streaming session — chunk requests and
// completions, rate switches, rebuffer start/end, buffer-level samples,
// reservoir updates, seeks — is emitted as a typed Event through a
// pluggable Observer.
//
// The design follows the instrumentation the paper's evidence chain is
// built on: per-session buffer trajectories, rebuffer events and rate
// switches, later aggregated into the two-hour windows of Figures 4–9.
// Production ABR studies (Yan et al. NSDI 2020, Licciardello et al.) rest
// on exactly this kind of per-event record.
//
// Emission is allocation-free on the fast path: Event is a flat value
// struct, and a nil Observer costs one branch per emission site. Sinks
// provided here:
//
//   - Journal — deterministic JSONL: same event stream ⇒ byte-identical
//     output, the property the determinism tests pin down.
//   - Ring — bounded in-memory buffer for tests and live inspection.
//   - Prom — Prometheus-text counters and histograms, servable over HTTP
//     (wired to /metrics on cmd/dashserver).
//   - Capture — unsynchronized in-memory recorder for one session's events
//     (the soak rig's per-session journals).
package telemetry

import (
	"time"

	"bba/internal/units"
)

// Kind identifies the type of a session event.
type Kind uint8

// The event taxonomy. SessionStart and SessionEnd bracket every session;
// the rest occur zero or more times in between in session-clock order.
const (
	// SessionStart is emitted once before the first request; Label
	// carries the algorithm name.
	SessionStart Kind = iota + 1
	// ChunkRequest is emitted when a chunk request is issued: Chunk,
	// RateIndex, Rate and the expected Bytes.
	ChunkRequest
	// ChunkComplete is emitted when the chunk lands: Duration is the
	// transfer time, Throughput the measured capacity, Buffer the
	// occupancy after the chunk is added.
	ChunkComplete
	// RateSwitch is emitted when the requested rate differs from the
	// previous chunk's: PrevRateIndex → RateIndex.
	RateSwitch
	// RebufferStart is emitted at the instant the buffer runs dry.
	// Label is "outage" when the session freezes permanently.
	RebufferStart
	// RebufferEnd is emitted when playback resumes; Duration is the
	// stall length of the event it closes.
	RebufferEnd
	// BufferSample is a buffer-occupancy sample taken at each decision
	// point: Buffer is B(t), Played the video delivered so far.
	BufferSample
	// ReservoirUpdate reports a change in a buffer-based algorithm's
	// effective reservoir (Reservoir) and outage protection (Protection).
	ReservoirUpdate
	// Seek is emitted when a viewer seek executes; Chunk is the target.
	Seek
	// SessionEnd closes the session: Played, Duration (total stall
	// time) and Chunk (number of chunks downloaded) summarize it.
	SessionEnd
	// FaultInject is emitted when an injected fault hits a chunk attempt:
	// Label carries the fault kind, Chunk the affected chunk, Duration the
	// time the failed attempt cost.
	FaultInject
	// ChunkRetry is emitted when the client re-attempts a chunk after a
	// failure: Chunk and RateIndex identify the retry, Duration the backoff
	// charged before it.
	ChunkRetry
	// Failover is emitted when the client switches endpoints: Label is the
	// endpoint switched to, PrevRateIndex/RateIndex carry the old/new
	// endpoint indices.
	Failover
	// Degrade is emitted when repeated chunk failure drops the session to
	// the minimum rate: PrevRateIndex → RateIndex, Bytes the shrunken
	// request size.
	Degrade
	// SoakCycle is emitted by the soak daemon once per completed cycle:
	// Chunk is the cycle index, Bytes the sessions driven, Duration the
	// cycle's wall-clock time, Label "pass" or "fail", At the elapsed
	// daemon time.
	SoakCycle
	// SLOBreach is emitted by the soak daemon for every invariant a cycle
	// violates: Label is the invariant name, Session the offending session
	// (empty for cycle-level breaches), Chunk the cycle index, At the
	// elapsed daemon time.
	SLOBreach

	// numKinds is one past the last valid Kind. Keep it last: the
	// exhaustive round-trip test walks [SessionStart, numKinds) and fails
	// on any Kind added without a kindNames entry.
	numKinds
)

var kindNames = [...]string{
	SessionStart:    "session_start",
	ChunkRequest:    "chunk_request",
	ChunkComplete:   "chunk_complete",
	RateSwitch:      "rate_switch",
	RebufferStart:   "rebuffer_start",
	RebufferEnd:     "rebuffer_end",
	BufferSample:    "buffer_sample",
	ReservoirUpdate: "reservoir_update",
	Seek:            "seek",
	SessionEnd:      "session_end",
	FaultInject:     "fault_inject",
	ChunkRetry:      "chunk_retry",
	Failover:        "failover",
	Degrade:         "degrade",
	SoakCycle:       "soak_cycle",
	SLOBreach:       "slo_breach",
}

// String returns the snake_case name used in the JSONL journal.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps a journal snake_case name back to its Kind. It returns
// false for names no Kind produces, including the "unknown" placeholder
// String falls back to.
func ParseKind(name string) (Kind, bool) { return kindNamed(name) }

// kindNamed is ParseKind over a string or, for ParseJSONL, over the bytes
// of a line: the comparison converts nothing.
func kindNamed[T string | []byte](name T) (Kind, bool) {
	for k := SessionStart; k < numKinds; k++ {
		if kindNames[k] == string(name) {
			return k, true
		}
	}
	return 0, false
}

// Event is one session event. It is a flat value struct — emitting one
// through an interface performs no heap allocation — and not every field is
// meaningful for every Kind; unused fields are zero (indices use -1 for
// "not applicable").
type Event struct {
	// Kind is the event type.
	Kind Kind
	// Session labels the session; empty for single-session runs. Population
	// labels end in ".<group>" (see GroupOfSession).
	Session string
	// At is the session clock (virtual time in the simulator, wall time
	// since session start over HTTP).
	At time.Duration
	// Chunk is the chunk index the event concerns (-1 when n/a).
	Chunk int
	// RateIndex is the session-ladder index (-1 when n/a).
	RateIndex int
	// PrevRateIndex is the previous ladder index on a RateSwitch (-1
	// otherwise).
	PrevRateIndex int
	// Rate is the nominal bit rate of RateIndex.
	Rate units.BitRate
	// Bytes is the chunk size (expected on request, actual on complete).
	Bytes int64
	// Duration is the transfer time (ChunkComplete), stall length
	// (RebufferEnd) or total stall time (SessionEnd).
	Duration time.Duration
	// Throughput is the measured capacity during the transfer.
	Throughput units.BitRate
	// Buffer is the playback-buffer occupancy at the event.
	Buffer time.Duration
	// Played is the video time delivered to the viewer so far.
	Played time.Duration
	// Reservoir is the algorithm's effective reservoir (ReservoirUpdate).
	Reservoir time.Duration
	// Protection is the accrued outage protection (ReservoirUpdate).
	Protection time.Duration
	// Label carries the algorithm name (SessionStart/SessionEnd) or a
	// qualifier such as "outage" (RebufferStart).
	Label string
}

// Observer receives session events. Implementations used from a single
// session need not be safe for concurrent use; sinks shared across
// sessions (Prom, Journal, Ring) are internally synchronized.
type Observer interface {
	OnEvent(Event)
}

// Func adapts a function to the Observer interface.
type Func func(Event)

// OnEvent implements Observer.
func (f Func) OnEvent(e Event) { f(e) }

// Multi fans every event out to each non-nil observer in order. It
// returns nil when no usable observer remains, preserving the nil fast
// path.
func Multi(obs ...Observer) Observer {
	var live multi
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	default:
		return live
	}
}

type multi []Observer

func (m multi) OnEvent(e Event) {
	for _, o := range m {
		o.OnEvent(e)
	}
}

// Stamp labels every event that carries no Session with Session, then
// passes it to Next. Put it in front of a fan-out (Multi) so every sink
// sees the same labelled bytes: a local copy and a shipped one agree, and a
// player's events join the origin's under one session name.
type Stamp struct {
	Session string
	Next    Observer
}

// OnEvent implements Observer.
func (s Stamp) OnEvent(e Event) {
	if e.Session == "" {
		e.Session = s.Session
	}
	s.Next.OnEvent(e)
}

// Capture records every event into memory; put a Stamp in front of it to
// label a session's events. It is deliberately unsynchronized: give each
// session its own Capture and read Events once the session is done.
type Capture struct {
	// Events accumulates the events in emission order.
	Events []Event
}

// OnEvent implements Observer.
func (c *Capture) OnEvent(e Event) { c.Events = append(c.Events, e) }
