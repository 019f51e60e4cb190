package telemetry

import (
	"bufio"
	"io"
	"strconv"
	"sync"
)

// Journal writes every event as one JSON line. The encoding is a pure
// function of the event — fixed field order, integer nanoseconds and bits
// per second, no floats, no wall-clock — so identical event streams
// produce byte-identical journals. That property is what lets the tests
// assert "same seed ⇒ same journal".
//
// Journal is safe for concurrent use; errors are sticky and reported by
// Err and Flush.
type Journal struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	buf []byte
	err error
}

// NewJournal returns a Journal writing JSONL to w.
func NewJournal(w io.Writer) *Journal {
	return &Journal{bw: bufio.NewWriter(w), buf: make([]byte, 0, 256)}
}

// OnEvent implements Observer.
func (j *Journal) OnEvent(e Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return
	}
	j.buf = appendEvent(j.buf[:0], e)
	_, j.err = j.bw.Write(j.buf)
}

// Flush flushes buffered lines to the underlying writer and returns the
// first error encountered so far.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	j.err = j.bw.Flush()
	return j.err
}

// Err returns the sticky error, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// AppendJSONL encodes e exactly as a Journal line (including the trailing
// newline), appending to dst. It is the journal's canonical encoding,
// exposed so tests and merge paths can reproduce it.
func AppendJSONL(dst []byte, e Event) []byte { return appendEvent(dst, e) }

// appendQuoted appends s as strconv.AppendQuote quotes it. A string of
// printable ASCII (0x20–0x7E) holding neither '"' nor '\' is its own
// quoting — the decoder takes exactly these as they stand (see
// Interner.quoted) — so it is copied between quotes; anything else goes
// through strconv.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendEvent renders one event as a JSON line. Every field is emitted
// every time: the few extra bytes buy an encoding with no omit-zero
// ambiguity to reason about when diffing journals.
func appendEvent(b []byte, e Event) []byte {
	b = append(b, `{"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","session":`...)
	b = appendQuoted(b, e.Session)
	b = append(b, `,"at_ns":`...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, `,"chunk":`...)
	b = strconv.AppendInt(b, int64(e.Chunk), 10)
	b = append(b, `,"rate_index":`...)
	b = strconv.AppendInt(b, int64(e.RateIndex), 10)
	b = append(b, `,"prev_rate_index":`...)
	b = strconv.AppendInt(b, int64(e.PrevRateIndex), 10)
	b = append(b, `,"rate_bps":`...)
	b = strconv.AppendInt(b, int64(e.Rate), 10)
	b = append(b, `,"bytes":`...)
	b = strconv.AppendInt(b, e.Bytes, 10)
	b = append(b, `,"duration_ns":`...)
	b = strconv.AppendInt(b, int64(e.Duration), 10)
	b = append(b, `,"throughput_bps":`...)
	b = strconv.AppendInt(b, int64(e.Throughput), 10)
	b = append(b, `,"buffer_ns":`...)
	b = strconv.AppendInt(b, int64(e.Buffer), 10)
	b = append(b, `,"played_ns":`...)
	b = strconv.AppendInt(b, int64(e.Played), 10)
	b = append(b, `,"reservoir_ns":`...)
	b = strconv.AppendInt(b, int64(e.Reservoir), 10)
	b = append(b, `,"protection_ns":`...)
	b = strconv.AppendInt(b, int64(e.Protection), 10)
	b = append(b, `,"label":`...)
	b = appendQuoted(b, e.Label)
	b = append(b, "}\n"...)
	return b
}
