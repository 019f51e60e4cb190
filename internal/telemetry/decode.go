package telemetry

import (
	"bytes"
	"errors"
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
// The strictness is the point: the columnar archive admits a batch only
// if ParseJSONL accepts every line of it, so every archived line is columns
// that re-render to it; any other batch is refused with ErrNotCanonical.
//
// It is one forward pass that allocates only the two strings the Event
// carries away (copies: the caller may reuse line). An integer is accepted
// only as strconv.AppendInt renders it. A quoted string of printable ASCII
// (0x20–0x7E) holding neither '"' nor '\' is taken as it stands:
// strconv.Quote escapes only those two bytes, non-printable runes and
// invalid UTF-8, so such a string is its own canonical quoting and the only
// quoting of its contents. Anything else — an escape, a control byte, 0x7F,
// non-ASCII — is unquoted and re-quoted by strconv, and accepted only if
// that reproduces the bytes.
func ParseJSONL(line []byte) (e Event, ok bool) { return Interner(nil).ParseJSONL(line) }

// ErrNotCanonical reports a line ParseJSONL refuses where only canonical
// journal lines are admitted.
var ErrNotCanonical = errors.New("telemetry: not a canonical journal line")

// Interner is a table of the strings parses have handed out, keyed by their
// bytes: one heap copy per distinct value, which every Event carrying that
// value then shares. A reader that parses many lines naming few sessions —
// the archive's WAL tail — keeps one from query to query, trimmed to a
// bound. Its strings are copies like ParseJSONL's, never views of a line, so
// an Event kept after they leave the table still owns them. A nil Interner
// interns nothing.
type Interner map[string]string

// str returns b as a string: the table's copy when it holds one, else a new
// copy, which the table then keeps.
func (in Interner) str(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if in != nil {
		in[s] = s
	}
	return s
}

// ParseJSONL is the package's ParseJSONL — the same verdict and an equal
// Event on every line — with the session and the label taken from the
// table, so an accepted line allocates only for a value the table has not
// seen.
func (in Interner) ParseJSONL(line []byte) (e Event, ok bool) {
	const head = `{"kind":"`
	if len(line) < len(head) || string(line[:len(head)]) != head {
		return e, false
	}
	rest := line[len(head):]
	nameEnd := bytes.IndexByte(rest, '"')
	if nameEnd < 0 {
		return e, false
	}
	if e.Kind, ok = kindNamed(rest[:nameEnd]); !ok {
		return e, false
	}
	rest = rest[nameEnd+1:]

	if e.Session, rest, ok = in.quoted(rest, `,"session":`); !ok {
		return e, false
	}
	// Read into v and assigned below, not through IntColumn.Set: a call
	// through a func value would move e to the heap. A refused line returns
	// what was read of it, so the fields before a bad one are assigned too.
	var v [numIntFields]int64
	for i := 0; ok && i < len(v); i++ {
		v[i], rest, ok = integer(rest, intKeys[i])
	}
	e.At, e.Chunk, e.RateIndex, e.PrevRateIndex = time.Duration(v[0]), int(v[1]), int(v[2]), int(v[3])
	e.Rate, e.Bytes, e.Duration, e.Throughput = units.BitRate(v[4]), v[5], time.Duration(v[6]), units.BitRate(v[7])
	e.Buffer, e.Played, e.Reservoir, e.Protection = time.Duration(v[8]), time.Duration(v[9]), time.Duration(v[10]), time.Duration(v[11])
	if !ok {
		return e, false
	}
	if e.Label, rest, ok = in.quoted(rest, `,"label":`); !ok {
		return e, false
	}
	return e, string(rest) == "}\n"
}

// integer reads key and the decimal int64 after it from the head of b,
// returning the value and what follows it. The digits must be exactly what
// strconv.AppendInt renders for the value: no '+', no leading zero, no
// "-0", nothing outside int64.
func integer(b []byte, key string) (v int64, rest []byte, ok bool) {
	if len(b) < len(key) || string(b[:len(key)]) != key {
		return 0, nil, false
	}
	b = b[len(key):]
	neg := len(b) > 0 && b[0] == '-'
	n := 0
	if neg {
		n = 1
	}
	start := n
	var u uint64
	for ; n < len(b) && b[n]-'0' <= 9; n++ {
		u = u*10 + uint64(b[n]-'0')
	}
	// Nineteen digits cannot wrap a uint64, and no int64 has more.
	digits := n - start
	if digits == 0 || digits > 19 || b[start] == '0' && (digits > 1 || neg) {
		return 0, nil, false
	}
	// Only the negative range reaches 1<<63, and -int64(1<<63) is it.
	if u > 1<<63-1 && !(neg && u == 1<<63) {
		return 0, nil, false
	}
	if neg {
		return -int64(u), b[n:], true
	}
	return int64(u), b[n:], true
}

// quoted reads key and the canonically Go-quoted string after it from the
// head of b, returning the string (a copy, or the table's) and what follows
// it.
func (in Interner) quoted(b []byte, key string) (s string, rest []byte, ok bool) {
	if len(b) <= len(key) || string(b[:len(key)]) != key || b[len(key)] != '"' {
		return "", nil, false
	}
	b = b[len(key):]
	for i := 1; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return in.str(b[1:i]), b[i+1:], true
		case c < 0x20 || c > 0x7e || c == '\\':
			return in.quotedSlow(b)
		}
	}
	return "", nil, false
}

// quotedSlow is quoted's general case: find the closing quote, honoring
// escapes, and accept the literal only if strconv, having unquoted it,
// quotes it back to the same bytes.
func (in Interner) quotedSlow(b []byte) (s string, rest []byte, ok bool) {
	for i := 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			s, err := strconv.Unquote(string(b[:i+1]))
			if err != nil || strconv.Quote(s) != string(b[:i+1]) {
				return "", nil, false
			}
			if t, ok := in[s]; ok {
				s = t
			} else if in != nil {
				in[s] = s
			}
			return s, b[i+1:], true
		}
	}
	return "", nil, false
}

// IntColumn describes one integer journal field: its JSONL key and typed
// accessors. The archive's columnar encoder iterates IntColumns to turn a
// stream of Events into per-field columns and back without enumerating the
// Event struct anywhere else.
type IntColumn struct {
	// Name is the JSONL object key ("at_ns", "chunk", ...).
	Name string
	Get  func(*Event) int64
	Set  func(*Event, int64)
}

// intFields lists every integer journal field in journal order — the order
// appendEvent emits them between "session" and "label". Keep the two in
// lockstep: the decoder test round-trips each Kind through
// AppendJSONL/ParseJSONL and fails on any divergence.
var intFields = []IntColumn{
	{Name: "at_ns",
		Get: func(e *Event) int64 { return int64(e.At) },
		Set: func(e *Event, v int64) { e.At = time.Duration(v) }},
	{Name: "chunk",
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

// numIntFields is len(intFields); intKeys holds each field's rendered key,
// `,"at_ns":` and so on, built once for ParseJSONL.
const numIntFields = 12

var intKeys = func() (keys [numIntFields]string) {
	for i, c := range intFields {
		keys[i] = `,"` + c.Name + `":`
	}
	return keys
}()

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
