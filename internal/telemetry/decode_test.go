package telemetry

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"bba/internal/units"
)

// referenceParseJSONL is ParseJSONL as it stood before the one-pass decoder,
// verbatim: closures over rest, every integer through strconv.ParseInt and
// back through FormatInt, every string through Unquote and back through
// Quote. It defines the accepted set; FuzzParseJSONL holds the decoder to it.
func referenceParseJSONL(line []byte) (e Event, ok bool) {
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

// TestParseJSONLRoundTrip walks every Kind with adversarial field values —
// negatives, quotes, unicode, newlines in labels — and requires the exact
// inverse property ParseJSONL promises: parse(encode(e)) == e and
// encode(parse(line)) == line.
func TestParseJSONLRoundTrip(t *testing.T) {
	labels := []string{"", "BBA-0", `quo"ted`, "uni·code", "new\nline", `back\slash`}
	for k := SessionStart; k < numKinds; k++ {
		for i, label := range labels {
			e := Event{
				Kind:    k,
				Session: "d1.w2.s3.g" + label,
				At:      time.Duration(int64(i)*7919 - 3),
				Chunk:   i - 1, RateIndex: -1, PrevRateIndex: 4,
				Rate: units.BitRate(2850 * 1000 * int64(i)), Bytes: -9,
				Duration:   time.Duration(i) * time.Millisecond,
				Throughput: 17 * units.Mbps, Buffer: 240 * time.Second,
				Played: time.Hour, Reservoir: 90 * time.Second,
				Protection: -time.Second, Label: label,
			}
			line := AppendJSONL(nil, e)
			got, ok := ParseJSONL(line)
			if !ok {
				t.Fatalf("kind %v label %q: ParseJSONL rejected its own encoding %q", k, label, line)
			}
			if got != e {
				t.Fatalf("kind %v: round trip drifted:\n got %+v\nwant %+v", k, got, e)
			}
			if re := AppendJSONL(nil, got); !bytes.Equal(re, line) {
				t.Fatalf("kind %v: re-encode differs:\n got %q\nwant %q", k, re, line)
			}
		}
	}
}

// TestParseJSONLStrict pins the rejections: anything that is not the
// canonical byte encoding must come back ok=false, because the archive
// uses ok as the "safe to store as columns" signal.
func TestParseJSONLStrict(t *testing.T) {
	canonical := string(AppendJSONL(nil, Event{Kind: BufferSample, Session: "s", Chunk: 1, RateIndex: -1, PrevRateIndex: -1}))
	bad := []string{
		"",
		"{}\n",
		"not json\n",
		canonical[:len(canonical)-1], // missing newline
		canonical + " ",              // trailing bytes
		`{"kind":"no_such_kind"` + canonical[15:],       // unknown kind
		"{\"kind\": \"buffer_sample\"" + "}\n",          // whitespace
		`{"session":"s","kind":"buffer_sample"}` + "\n", // reordered
	}
	for _, line := range bad {
		if e, ok := ParseJSONL([]byte(line)); ok {
			t.Errorf("ParseJSONL accepted non-canonical %q as %+v", line, e)
		}
	}
	// Non-canonical integers re-encode differently; they must be rejected.
	leadingZero := []byte(canonical)
	leadingZero = bytes.Replace(leadingZero, []byte(`"chunk":1`), []byte(`"chunk":01`), 1)
	if _, ok := ParseJSONL(leadingZero); ok {
		t.Error("ParseJSONL accepted a leading-zero integer")
	}
}

// goodLine is the one canonical line the corruption tables start from.
var goodLine = string(AppendJSONL(nil, Event{
	Kind: ChunkComplete, Session: "d0.w3.s17.BBA-2", At: 93 * time.Second, Chunk: 23,
	RateIndex: 4, PrevRateIndex: -1, Rate: 1750 * units.Kbps, Bytes: 871_236,
	Duration: 1830 * time.Millisecond, Throughput: 3800 * units.Kbps,
	Buffer: 41 * time.Second, Played: 52 * time.Second, Label: "BBA-2",
}))

// parseCases is one good line, then one change to it per row. Most rows are
// corruptions no AppendJSONL output shows, each of which must be refused; the
// last few sit just inside the accepted set.
var parseCases = []struct {
	name     string
	old, new string // the one replacement made in goodLine
	ok       bool
}{
	{"the good line", "", "", true},
	{"explicit plus sign", `"chunk":23`, `"chunk":+23`, false},
	{"leading zeros", `"chunk":23`, `"chunk":007`, false},
	{"one leading zero", `"chunk":23`, `"chunk":023`, false},
	{"negative zero", `"chunk":23`, `"chunk":-0`, false},
	{"bare minus", `"chunk":23`, `"chunk":-`, false},
	{"no digits", `"chunk":23`, `"chunk":`, false},
	{"one past max int64", `"bytes":871236`, `"bytes":9223372036854775808`, false},
	{"one past min int64", `"bytes":871236`, `"bytes":-9223372036854775809`, false},
	{"twenty digits", `"bytes":871236`, `"bytes":10000000000000000000`, false},
	{"twenty digits that wrap a uint64 to a small value", `"bytes":871236`, `"bytes":18446744073709551617`, false},
	{"a float", `"bytes":871236`, `"bytes":871236.0`, false},
	{"an exponent", `"bytes":871236`, `"bytes":8e5`, false},
	{"a space after a colon", `"chunk":23`, `"chunk": 23`, false},
	{"a space after the string colon", `"session":"`, `"session": "`, false},
	{"two fields swapped", `"chunk":23,"rate_index":4`, `"rate_index":4,"chunk":23`, false},
	{"a missing field", `,"rate_index":4`, ``, false},
	{"a missing label", `,"label":"BBA-2"`, ``, false},
	{"missing newline", "}\n", "}", false},
	{"trailing bytes", "}\n", "}\n ", false},
	{"a second line", "}\n", "}\n{}\n", false},
	{"unknown kind", `"kind":"chunk_complete"`, `"kind":"chunk_completed"`, false},
	{"empty kind", `"kind":"chunk_complete"`, `"kind":""`, false},
	{"the unknown placeholder as kind", `"kind":"chunk_complete"`, `"kind":"unknown"`, false},
	{"an escape where the rune itself is canonical", `"label":"BBA-2"`, `"label":"\u00e9"`, false},
	{"an escaped ASCII letter", `"label":"BBA-2"`, `"label":"\x42BA-2"`, false},
	{"a raw DEL byte", `"label":"BBA-2"`, "\"label\":\"BBA\x7f2\"", false},
	{"a raw tab", `"label":"BBA-2"`, "\"label\":\"BBA\t2\"", false},
	{"a raw newline in a string", `"label":"BBA-2"`, "\"label\":\"BBA\n2\"", false},
	{"invalid UTF-8", `"label":"BBA-2"`, "\"label\":\"BBA\xff2\"", false},
	{"an unterminated string", `"label":"BBA-2"}`, `"label":"BBA-2}`, false},
	{"a string ending in a lone backslash", `"label":"BBA-2"`, `"label":"BBA-2\"`, false},
	{"an unquoted string", `"label":"BBA-2"`, `"label":BBA-2`, false},
	{"single quotes", `"session":"d0.w3.s17.BBA-2"`, `"session":'d0.w3.s17.BBA-2'`, false},

	{"min int64", `"bytes":871236`, `"bytes":-9223372036854775808`, true},
	{"max int64", `"bytes":871236`, `"bytes":9223372036854775807`, true},
	{"zero", `"bytes":871236`, `"bytes":0`, true},
	{"a printable non-ASCII rune, raw", `"label":"BBA-2"`, `"label":"é"`, true},
	{"the canonical escapes", `"label":"BBA-2"`, `"label":"q\"b\\n\nt\tu\x7fv\u00ad"`, true},
	{"empty strings", `"session":"d0.w3.s17.BBA-2"`, `"session":""`, true},
	{"a tilde, the last printable ASCII byte", `"label":"BBA-2"`, `"label":"~ ~"`, true},
}

// TestParseJSONLCases walks parseCases. An accepted line must also agree
// with the reference decoder and re-render to itself.
func TestParseJSONLCases(t *testing.T) {
	for _, tc := range parseCases {
		line := []byte(strings.Replace(goodLine, tc.old, tc.new, 1))
		if tc.old != "" && string(line) == goodLine {
			t.Fatalf("%s: the replacement of %q changed nothing", tc.name, tc.old)
		}
		e, ok := ParseJSONL(line)
		if ok != tc.ok {
			t.Errorf("%s: ParseJSONL(%q) ok = %v, want %v", tc.name, line, ok, tc.ok)
		}
		if want, wantOK := referenceParseJSONL(line); ok != wantOK || e != want {
			t.Errorf("%s: ParseJSONL(%q) = %+v, %v; the reference decoder says %+v, %v", tc.name, line, e, ok, want, wantOK)
		}
		if re := AppendJSONL(nil, e); ok && !bytes.Equal(re, line) {
			t.Errorf("%s: accepted %q but re-renders as %q", tc.name, line, re)
		}
	}
}

// TestParseJSONLIntegerBounds walks every integer field across the edge of
// int64: both extremes parse to themselves and one past either is refused —
// which an overflow check off by one, on either side, fails.
func TestParseJSONLIntegerBounds(t *testing.T) {
	for i, c := range intFields {
		for _, tc := range []struct {
			text string
			ok   bool
		}{
			{"9223372036854775807", true}, {"9223372036854775808", false},
			{"-9223372036854775808", true}, {"-9223372036854775809", false},
			{"0", true}, {"-1", true}, {"00", false}, {"-01", false},
		} {
			e := Event{Kind: BufferSample}
			for j, cj := range intFields {
				cj.Set(&e, int64(100+j))
			}
			line := bytes.Replace(AppendJSONL(nil, e), []byte(":"+strconv.Itoa(100+i)+","), []byte(":"+tc.text+","), 1)
			got, ok := ParseJSONL(line)
			if ok != tc.ok {
				t.Errorf("%s = %s: ok = %v, want %v", c.Name, tc.text, ok, tc.ok)
			}
			if want, _ := strconv.ParseInt(tc.text, 10, 64); ok && c.Get(&got) != want {
				t.Errorf("%s = %s parsed as %d", c.Name, tc.text, c.Get(&got))
			}
		}
	}
}

// TestParseJSONLCopiesStrings overwrites the line after parsing it: the
// Event's strings must be copies, because the archive parses WAL lines out
// of a buffer the next query refills. A string that was a view of the line
// (unsafe.String on the fast path) changes here.
// The interning parse is held to the same, after its table is cleared too.
func TestParseJSONLCopiesStrings(t *testing.T) {
	in := Interner{}
	for _, parse := range []func([]byte) (Event, bool){ParseJSONL, in.ParseJSONL} {
		line := []byte(goodLine)
		e, ok := parse(line)
		if !ok {
			t.Fatal("the good line was refused")
		}
		clear(in)
		for i := range line {
			line[i] = 'x'
		}
		if e.Session != "d0.w3.s17.BBA-2" || e.Label != "BBA-2" {
			t.Fatalf("after the line was overwritten the event reads session %q label %q: its strings alias the input", e.Session, e.Label)
		}
	}
}

// TestParseJSONLAllocs holds the decoder to the two strings an Event
// carries: nothing else on an accepted line, and nothing at all on a line
// refused before its session is read — which is where a foreign line fails.
// (A line refused later has paid for the strings read by then.)
func TestParseJSONLAllocs(t *testing.T) {
	allocs := func(line string, wantOK bool) float64 {
		b := []byte(line)
		return testing.AllocsPerRun(200, func() {
			if _, ok := ParseJSONL(b); ok != wantOK {
				t.Fatalf("ParseJSONL(%q) ok = %v", b, ok)
			}
		})
	}
	if n := allocs(goodLine, true); n > 2 {
		t.Errorf("%v allocations per accepted line, want at most the session and the label", n)
	}
	for _, bad := range []string{
		"not json at all\n",
		`{"session":"d0.w0.s2.BBA-1","kind":"buffer_sample","at_ns":7}` + "\n",
		strings.Replace(goodLine, `"kind":"chunk_complete"`, `"kind":"a_name_longer_than_any_buffer_the_runtime_lends_a_string_conversion"`, 1),
		strings.Replace(goodLine, `"session":"`, `"session": "`, 1),
	} {
		if n := allocs(bad, false); n != 0 {
			t.Errorf("%v allocations refusing %q, want 0", n, bad)
		}
	}
	if n := allocs(goodLine[:len(goodLine)-1], false); n > 2 {
		t.Errorf("%v allocations refusing a line at its last byte, want at most the two strings read by then", n)
	}
	// Through a table, a value costs its copy the first time only.
	in, line := Interner{}, []byte(goodLine)
	if _, ok := in.ParseJSONL(line); !ok || len(in) != 2 {
		t.Fatalf("the good line: ok %v, %d strings interned, want 2", ok, len(in))
	}
	if n := testing.AllocsPerRun(200, func() { in.ParseJSONL(line) }); n != 0 {
		t.Errorf("%v allocations parsing a line whose strings are interned, want 0", n)
	}
}

// FuzzParseJSONL is the differential test of the one-pass decoder: on every
// input it must return exactly what referenceParseJSONL returns — the same
// verdict and the same Event, field for field — and an accepted line must
// re-render to itself. The interning parse must agree with both, through an
// empty table and through one that already holds the line's strings. And the
// encoder's quoting of the input, taken as a string, must be strconv's, byte
// for byte.
func FuzzParseJSONL(f *testing.F) {
	for k := SessionStart; k < numKinds; k++ {
		f.Add(AppendJSONL(nil, Event{Kind: k, Session: "d1.w2.s3.g", Chunk: -1, RateIndex: -1, PrevRateIndex: -1}))
	}
	f.Add(AppendJSONL(nil, Event{Kind: Seek, At: math.MinInt64, Bytes: math.MaxInt64, Buffer: math.MaxInt64, Protection: math.MinInt64}))
	for _, label := range []string{`quo"ted`, "uni·code é", "new\nline", `back\slash`, "\x7f", "\xff", "\u00ad", "日本語"} {
		f.Add(AppendJSONL(nil, Event{Kind: SessionStart, Session: label, Label: label}))
	}
	for _, tc := range parseCases {
		f.Add([]byte(strings.Replace(goodLine, tc.old, tc.new, 1)))
	}
	// Retired kinds: lines a block or journal written before they went may
	// still hold. They now parse as unknown names and must be refused.
	for _, name := range []string{"campaign_progress", "arena_match", "worker_join", "lease_grant", "lease_expire"} {
		f.Add([]byte(strings.Replace(goodLine, `"chunk_complete"`, `"`+name+`"`, 1)))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		got, ok := ParseJSONL(line)
		want, wantOK := referenceParseJSONL(line)
		if ok != wantOK || got != want {
			t.Fatalf("ParseJSONL(%q) = %+v, %v; the reference decoder says %+v, %v", line, got, ok, want, wantOK)
		}
		if re := AppendJSONL(nil, got); ok && !bytes.Equal(re, line) {
			t.Fatalf("accepted %q but re-renders as %q", line, re)
		}
		// The encoder's quoting fast path, on the bytes as one string.
		if q, want := appendQuoted(nil, string(line)), strconv.AppendQuote(nil, string(line)); !bytes.Equal(q, want) {
			t.Fatalf("appendQuoted(%q) = %s, strconv.AppendQuote %s", line, q, want)
		}
		in := Interner{}
		for pass := range 2 {
			if interned, iok := in.ParseJSONL(line); iok != ok || interned != got {
				t.Fatalf("Interner.ParseJSONL(%q), pass %d = %+v, %v; ParseJSONL says %+v, %v", line, pass, interned, iok, got, ok)
			}
		}
	})
}

// FuzzEventRoundTrip is FuzzParseJSONL's converse, the property the
// archive's admission rests on: every Event the journal carries — a declared
// Kind, any integers, a session and a label of arbitrary bytes (invalid
// UTF-8, control bytes, quotes) — renders to a line ParseJSONL accepts and
// returns as that Event, so a refusal never drops a real frame.
func FuzzEventRoundTrip(f *testing.F) {
	const lo, hi = math.MinInt64, math.MaxInt64
	f.Add(uint8(0), "d1.w2.s3.g", "BBA-0", int64(0), int64(-1), int64(-1), int64(4), int64(2850000), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0), int64(0))
	f.Add(uint8(7), `quo"ted\`, "new\nline\x00", int64(lo), int64(hi), int64(lo), int64(hi), int64(lo), int64(hi), int64(lo), int64(hi), int64(lo), int64(hi), int64(lo), int64(hi))
	f.Add(uint8(200), "\xff\xfe", "\x7f\u00ad日本語", int64(-9), int64(1), int64(-1), int64(0), int64(1), int64(-9), int64(10), int64(-10), int64(99), int64(100), int64(-100), int64(1<<62))
	f.Fuzz(func(t *testing.T, kind uint8, session, label string, at, chunk, rateIndex, prevRateIndex, rate, size, duration, throughput, buffer, played, reservoir, protection int64) {
		e := Event{Kind: SessionStart + Kind(kind)%(numKinds-SessionStart), Session: session, Label: label}
		for i, v := range [...]int64{at, chunk, rateIndex, prevRateIndex, rate, size, duration, throughput, buffer, played, reservoir, protection} {
			IntColumns()[i].Set(&e, v)
		}
		line := AppendJSONL(nil, e)
		if got, ok := ParseJSONL(line); !ok || got != e {
			t.Fatalf("ParseJSONL(%q) = %+v, %v; want %+v, true", line, got, ok, e)
		}
		if got, ok := (Interner{}).ParseJSONL(line); !ok || got != e {
			t.Fatalf("Interner.ParseJSONL(%q) = %+v, %v; want %+v, true", line, got, ok, e)
		}
	})
}

// BenchmarkParseJSONL is the decoder on a typical line: what every
// compaction pays per event and every query per WAL-tail line.
func BenchmarkParseJSONL(b *testing.B) {
	line := []byte(goodLine)
	b.SetBytes(int64(len(line)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ParseJSONL(line); !ok {
			b.Fatal("the good line was refused")
		}
	}
}

// TestIntColumnsMatchJournal locks the IntColumns table to the journal
// encoding: setting each column to a distinct sentinel and re-reading it
// through Get must agree, and the table's names in order must be exactly
// the integer keys appendEvent emits.
func TestIntColumnsMatchJournal(t *testing.T) {
	var e Event
	cols := IntColumns()
	for i, c := range cols {
		c.Set(&e, int64(1000+i))
	}
	for i, c := range cols {
		if got := c.Get(&e); got != int64(1000+i) {
			t.Errorf("column %s: Get after Set = %d, want %d", c.Name, got, 1000+i)
		}
	}
	// Extract the integer keys from a rendered line in order.
	line := AppendJSONL(nil, e)
	idx := 0
	for _, c := range cols {
		key := []byte(`,"` + c.Name + `":`)
		at := bytes.Index(line[idx:], key)
		if at < 0 {
			t.Fatalf("journal line missing key %q in order: %q", c.Name, line)
		}
		idx += at + len(key)
	}
}

func TestGroupOfSession(t *testing.T) {
	for in, want := range map[string]string{
		"d0.w3.s5.BBA-0": "BBA-0",
		"solo":           "solo",
		"":               "",
		"a.":             "",
	} {
		if got := GroupOfSession(in); got != want {
			t.Errorf("GroupOfSession(%q) = %q, want %q", in, got, want)
		}
	}
}
