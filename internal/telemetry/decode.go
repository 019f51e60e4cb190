package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"time"

	"bba/internal/units"
)

// ParseJSONL parses one canonical journal line (the exact bytes
// AppendJSONL produces, including the trailing newline) back into its
// Event. It is the strict inverse of the journal encoding: fixed field
// order, integer values, Go-quoted strings. ok is false for any line that
// deviates — reordered fields, whitespace, floats, missing newline — or
// whose kind name no Kind produces. A true return guarantees the round
// trip: AppendJSONL(nil, e) reproduces line byte for byte.
//
// The strictness is the point: the columnar archive uses ParseJSONL to
// decide whether a line can be stored as columns and losslessly
// re-rendered, falling back to verbatim raw bytes when it cannot.
func ParseJSONL(line []byte) (e Event, ok bool) {
	rest := line
	eat := func(prefix string) bool {
		if len(rest) < len(prefix) || string(rest[:len(prefix)]) != prefix {
			return false
		}
		rest = rest[len(prefix):]
		return true
	}
	str := func() (string, bool) {
		// Go-quoted string: find the closing quote, honoring escapes.
		if len(rest) == 0 || rest[0] != '"' {
			return "", false
		}
		end := -1
		for i := 1; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return "", false
		}
		s, err := strconv.Unquote(string(rest[:end+1]))
		if err != nil {
			return "", false
		}
		// Canonical quoting only: re-quoting must reproduce the bytes.
		if strconv.Quote(s) != string(rest[:end+1]) {
			return "", false
		}
		rest = rest[end+1:]
		return s, true
	}
	integer := func() (int64, bool) {
		i := 0
		if i < len(rest) && rest[i] == '-' {
			i++
		}
		for i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
			i++
		}
		v, err := strconv.ParseInt(string(rest[:i]), 10, 64)
		if err != nil {
			return 0, false
		}
		// Reject non-canonical renderings ("-0", "007"): AppendInt never
		// produces them, and accepting them would break the round trip.
		if strconv.FormatInt(v, 10) != string(rest[:i]) {
			return 0, false
		}
		rest = rest[i:]
		return v, true
	}

	if !eat(`{"kind":"`) {
		return e, false
	}
	nameEnd := bytes.IndexByte(rest, '"')
	if nameEnd < 0 {
		return e, false
	}
	kind, kindOK := ParseKind(string(rest[:nameEnd]))
	if !kindOK {
		return e, false
	}
	e.Kind = kind
	rest = rest[nameEnd+1:]

	if !eat(`,"session":`) {
		return e, false
	}
	if e.Session, ok = str(); !ok {
		return e, false
	}
	for _, c := range intFields {
		if !eat(`,"` + c.Name + `":`) {
			return e, false
		}
		v, vok := integer()
		if !vok {
			return e, false
		}
		c.Set(&e, v)
	}
	if !eat(`,"label":`) {
		return e, false
	}
	if e.Label, ok = str(); !ok {
		return e, false
	}
	return e, eat("}\n") && len(rest) == 0
}

// IntColumn describes one integer journal field: its JSONL key and typed
// accessors. The archive's columnar encoder iterates IntColumns to turn a
// stream of Events into per-field columns and back without enumerating the
// Event struct anywhere else.
type IntColumn struct {
	// Name is the JSONL object key ("at_ns", "chunk", ...).
	Name string
	// Delta marks columns that are near-monotone in admission order
	// (session clocks, chunk indexes) and therefore delta-encode well.
	Delta bool
	Get   func(*Event) int64
	Set   func(*Event, int64)
}

// intFields lists every integer journal field in journal order — the order
// appendEvent emits them between "session" and "label". Keep the two in
// lockstep: the decoder test round-trips each Kind through
// AppendJSONL/ParseJSONL and fails on any divergence.
var intFields = []IntColumn{
	{Name: "at_ns", Delta: true,
		Get: func(e *Event) int64 { return int64(e.At) },
		Set: func(e *Event, v int64) { e.At = time.Duration(v) }},
	{Name: "chunk", Delta: true,
		Get: func(e *Event) int64 { return int64(e.Chunk) },
		Set: func(e *Event, v int64) { e.Chunk = int(v) }},
	{Name: "rate_index",
		Get: func(e *Event) int64 { return int64(e.RateIndex) },
		Set: func(e *Event, v int64) { e.RateIndex = int(v) }},
	{Name: "prev_rate_index",
		Get: func(e *Event) int64 { return int64(e.PrevRateIndex) },
		Set: func(e *Event, v int64) { e.PrevRateIndex = int(v) }},
	{Name: "rate_bps",
		Get: func(e *Event) int64 { return int64(e.Rate) },
		Set: func(e *Event, v int64) { e.Rate = units.BitRate(v) }},
	{Name: "bytes",
		Get: func(e *Event) int64 { return e.Bytes },
		Set: func(e *Event, v int64) { e.Bytes = v }},
	{Name: "duration_ns",
		Get: func(e *Event) int64 { return int64(e.Duration) },
		Set: func(e *Event, v int64) { e.Duration = time.Duration(v) }},
	{Name: "throughput_bps",
		Get: func(e *Event) int64 { return int64(e.Throughput) },
		Set: func(e *Event, v int64) { e.Throughput = units.BitRate(v) }},
	{Name: "buffer_ns",
		Get: func(e *Event) int64 { return int64(e.Buffer) },
		Set: func(e *Event, v int64) { e.Buffer = time.Duration(v) }},
	{Name: "played_ns",
		Get: func(e *Event) int64 { return int64(e.Played) },
		Set: func(e *Event, v int64) { e.Played = time.Duration(v) }},
	{Name: "reservoir_ns",
		Get: func(e *Event) int64 { return int64(e.Reservoir) },
		Set: func(e *Event, v int64) { e.Reservoir = time.Duration(v) }},
	{Name: "protection_ns",
		Get: func(e *Event) int64 { return int64(e.Protection) },
		Set: func(e *Event, v int64) { e.Protection = time.Duration(v) }},
}

// IntColumns returns the integer journal fields in journal order.
func IntColumns() []IntColumn { return intFields }

// GroupOfSession extracts the experiment group from a session label.
// Population labels read "d<day>.w<window>.s<index>.<group>", so the
// group is the suffix after the last dot; labels without one (single
// sessions, ad-hoc tools) are their own group.
func GroupOfSession(session string) string {
	if i := strings.LastIndexByte(session, '.'); i >= 0 {
		return session[i+1:]
	}
	return session
}
