package telemetry

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
	"time"

	"bba/internal/units"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: SessionStart, Chunk: -1, RateIndex: -1, PrevRateIndex: -1, Label: "BBA-2"},
		{Kind: ChunkRequest, At: time.Second, Chunk: 0, RateIndex: 2, PrevRateIndex: -1,
			Rate: 1750 * units.Kbps, Bytes: 875000},
		{Kind: ChunkComplete, At: 2 * time.Second, Chunk: 0, RateIndex: 2, PrevRateIndex: -1,
			Rate: 1750 * units.Kbps, Bytes: 875000, Duration: time.Second,
			Throughput: 7 * units.Mbps, Buffer: 4 * time.Second},
		{Kind: RebufferStart, At: 3 * time.Second, Chunk: 1, RateIndex: -1, PrevRateIndex: -1},
		{Kind: RebufferEnd, At: 5 * time.Second, Chunk: 1, RateIndex: -1, PrevRateIndex: -1,
			Duration: 2 * time.Second},
		{Kind: SessionEnd, At: 10 * time.Second, Chunk: 2, RateIndex: -1, PrevRateIndex: -1,
			Played: 8 * time.Second, Duration: 2 * time.Second, Label: "BBA-2"},
	}
}

func TestKindString(t *testing.T) {
	for k := SessionStart; k <= SessionEnd; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Error("out-of-range kinds should stringify as unknown")
	}
}

func TestJournalDeterministicBytes(t *testing.T) {
	var a, b bytes.Buffer
	for _, buf := range []*bytes.Buffer{&a, &b} {
		j := NewJournal(buf)
		for _, e := range sampleEvents() {
			j.OnEvent(e)
		}
		if err := j.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical event streams produced different journals")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != len(sampleEvents()) {
		t.Fatalf("journal has %d lines, want %d", len(lines), len(sampleEvents()))
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, `{"kind":"`) || !strings.HasSuffix(l, "}") {
			t.Errorf("line %d is not a JSON object: %s", i, l)
		}
	}
	if !strings.Contains(lines[0], `"label":"BBA-2"`) {
		t.Errorf("session_start line missing label: %s", lines[0])
	}
}

type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.after -= len(p)
	if f.after < 0 {
		return 0, errWrite
	}
	return len(p), nil
}

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "synthetic write failure" }

func TestJournalStickyError(t *testing.T) {
	j := NewJournal(&failWriter{after: 16})
	for i := 0; i < 100; i++ {
		j.OnEvent(Event{Kind: BufferSample, Chunk: i})
	}
	if j.Flush() == nil {
		t.Fatal("expected sticky write error")
	}
	if j.Err() == nil {
		t.Fatal("Err should report the sticky error")
	}
}

func TestRingBoundsAndOrder(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 10; i++ {
		r.OnEvent(Event{Kind: BufferSample, Chunk: i})
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Events()
	for i, e := range evs {
		if e.Chunk != 6+i {
			t.Fatalf("event %d has chunk %d, want %d (oldest-first)", i, e.Chunk, 6+i)
		}
	}
	if r.CountKind(BufferSample) != 4 || r.CountKind(Seek) != 0 {
		t.Error("CountKind miscounts")
	}
}

func TestMultiDropsNils(t *testing.T) {
	if Multi(nil, nil) != nil {
		t.Error("Multi of nils should be nil")
	}
	var n1, n2 int
	o := Multi(nil, Func(func(Event) { n1++ }), Func(func(Event) { n2++ }))
	o.OnEvent(Event{Kind: Seek})
	o.OnEvent(Event{Kind: Seek})
	if n1 != 2 || n2 != 2 {
		t.Errorf("fan-out counts = %d, %d; want 2, 2", n1, n2)
	}
	r := NewRing(1)
	if got := Multi(nil, r); got != Observer(r) {
		t.Error("Multi with one live observer should return it unwrapped")
	}
}

// TestCaptureStampsSession: a Capture behind a Stamp records every event
// labelled, and an event that already carries a label keeps it.
func TestCaptureStampsSession(t *testing.T) {
	c := &Capture{}
	s := Stamp{Session: "d0.w01.s002.BBA-2", Next: c}
	s.OnEvent(Event{Kind: SessionStart})
	s.OnEvent(Event{Kind: SessionEnd, Session: "explicit"})
	if c.Events[0].Session != "d0.w01.s002.BBA-2" {
		t.Error("empty session not stamped")
	}
	if c.Events[1].Session != "explicit" {
		t.Error("pre-labelled session overwritten")
	}
}

func TestPromExposition(t *testing.T) {
	p := NewProm("")
	for _, e := range sampleEvents() {
		p.OnEvent(e)
	}
	p.OnEvent(Event{Kind: BufferSample, Buffer: 45 * time.Second})
	var buf bytes.Buffer
	p.WriteTo(&buf)
	out := buf.String()
	for _, want := range []string{
		"bba_sessions_started_total 1",
		"bba_sessions_completed_total 1",
		"bba_chunks_completed_total 1",
		"bba_downloaded_bytes_total 875000",
		"bba_rebuffers_total 1",
		"bba_stall_seconds_total 2",
		`bba_chunk_download_seconds_bucket{le="1"} 1`,
		"bba_chunk_download_seconds_count 1",
		`bba_buffer_level_seconds_bucket{le="+Inf"} 1`,
		"# TYPE bba_chunk_download_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
	// Cumulative buckets must be non-decreasing.
	last := -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "bba_chunk_download_seconds_bucket") {
			n, err := strconv.Atoi(line[strings.LastIndexByte(line, ' ')+1:])
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if n < last {
				t.Errorf("bucket counts decrease at %q", line)
			}
			last = n
		}
	}
}
