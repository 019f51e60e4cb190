package collect

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"bba/internal/archive"
	"bba/internal/telemetry"
)

// eventsPayload renders n telemetry events as a journal JSONL batch.
func eventsPayload(n int) []byte {
	var b []byte
	for i := 0; i < n; i++ {
		b = telemetry.AppendJSONL(b, telemetry.Event{
			Kind: telemetry.BufferSample, Session: "s", Chunk: i,
			RateIndex: -1, PrevRateIndex: -1, Buffer: 3 * time.Second,
		})
	}
	return b
}

// bufArchiver captures every admitted batch, all runs interleaved, in
// admission order, over in-memory watermarks.
type bufArchiver struct {
	*archive.Watermarks
	*bytes.Buffer
}

func newBufArchiver(buf *bytes.Buffer) bufArchiver { return bufArchiver{new(archive.Watermarks), buf} }

func (a bufArchiver) Admit(run string, session, seq uint64, batch []byte) (bool, error) {
	if dup, err := a.Watermarks.Admit(run, session, seq, batch); dup || err != nil {
		return dup, err
	}
	_, err := a.Write(batch)
	return false, err
}

func TestCollectorIngestEvents(t *testing.T) {
	var archived bytes.Buffer
	c := NewCollector(CollectorConfig{Archive: newBufArchiver(&archived)})
	f1 := AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: 0, Kind: PayloadEvents, Payload: eventsPayload(3)})
	f2 := AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: 1, Kind: PayloadEvents, Payload: eventsPayload(2)})
	for _, f := range [][]byte{f1, f2, f1, f2, f1} {
		if err := c.Ingest(f); err != nil {
			t.Fatalf("ingest: %v", err)
		}
	}
	s := c.Stats()
	if s.Events != 5 || s.Frames["events"] != 2 || s.FramesDup != 3 {
		t.Fatalf("stats %+v: duplicates must not double-count", s)
	}
	// The archive holds each admitted batch exactly once, and is valid
	// journal JSONL.
	want := append(eventsPayload(3), eventsPayload(2)...)
	if !bytes.Equal(archived.Bytes(), want) {
		t.Fatalf("archive:\n%q\nwant:\n%q", archived.Bytes(), want)
	}
}

func TestCollectorIngestBad(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	if err := c.Ingest([]byte("not a frame at all")); err == nil {
		t.Fatalf("garbage ingested")
	}
	// Events are the only kind admitted: the retired run_start/shard/run_end
	// values (2–4) are rejected exactly like a kind that never existed.
	for _, kind := range []PayloadKind{0, 2, 3, 4, 77} {
		f := AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: 0, Kind: kind, Payload: eventsPayload(1)})
		if err := c.Ingest(f); !errors.Is(err, ErrBadFrame) || retryable(err) {
			t.Fatalf("kind %d: err = %v, want a permanent ErrBadFrame", kind, err)
		}
	}
	if s := c.Stats(); s.FramesBad != 6 || s.Streams != 0 || s.Events != 0 {
		t.Fatalf("stats %+v: a rejected frame must spend no seq and open no stream", s)
	}
}

func TestCollectorHandler(t *testing.T) {
	c := NewCollector(CollectorConfig{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	post := func(body []byte) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	frame := func(session, seq uint64, kind PayloadKind) []byte {
		return AppendFrame(nil, Frame{Run: "h", Session: session, Seq: seq, Kind: kind, Payload: eventsPayload(2)})
	}
	if code := post([]byte("garbage")); code != http.StatusBadRequest {
		t.Fatalf("garbage: %d", code)
	}
	if code := post(frame(1, 0, PayloadKind(3))); code != http.StatusBadRequest {
		t.Fatalf("a kind other than events must be a permanent rejection: %d", code)
	}
	// Two sender sessions reuse the same seqs — distinct streams. Session
	// 1's arrive out of order, with one re-delivery: every frame is
	// acknowledged, and the late seq 0 and the replayed seq 1 sit below
	// the watermark seq 1 set, so both count as duplicates.
	for i, f := range [][]byte{frame(1, 1, PayloadEvents), frame(2, 0, PayloadEvents), frame(1, 0, PayloadEvents), frame(1, 1, PayloadEvents), frame(2, 1, PayloadEvents)} {
		if code := post(f); code != http.StatusNoContent {
			t.Fatalf("frame %d: %d", i, code)
		}
	}
	// The campaign lane's endpoint is gone with it.
	if resp, err := http.Get(srv.URL + "/report" + "/h"); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET report: %v %v, want 404", err, resp.Status)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil || mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %v", err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`bba_collect_frames_total{kind="events"} 3`,
		"bba_collect_frames_duplicate_total 2",
		"bba_collect_frames_bad_total 2",
		"bba_collect_events_total 6",
		"bba_collect_streams_total 2",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Fatalf("metrics missing %q:\n%s", want, metrics.String())
		}
	}

	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil || hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v", err)
	}
	hresp.Body.Close()
}

// failingArchiver persists batches until failAfter calls, then fails
// every call, recording what it durably accepted.
type failingArchiver struct {
	calls     int
	failAfter int
	accepted  bytes.Buffer
}

func (a *failingArchiver) Admit(_ string, _, _ uint64, batch []byte) (bool, error) {
	a.calls++
	if a.calls > a.failAfter {
		return false, errors.New("disk full")
	}
	a.accepted.Write(batch)
	return false, nil
}

// TestCollectorArchiveFailureNACK is the regression test for the silent
// archive-loss bug: a collector with a failing archive writer must never
// acknowledge an event frame it did not persist. Before the fix the write
// happened after the frame's seq was spent, with the error ignored — the
// frame was ACKed, the shipper moved on, and the batch was gone.
func TestCollectorArchiveFailureNACK(t *testing.T) {
	arch := &failingArchiver{failAfter: 2}
	c := NewCollector(CollectorConfig{Archive: arch})
	frame := func(seq uint64, n int) []byte {
		return AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: seq, Kind: PayloadEvents, Payload: eventsPayload(n)})
	}

	// Two frames persist and ACK.
	if err := c.Ingest(frame(0, 3)); err != nil {
		t.Fatalf("frame 0: %v", err)
	}
	if err := c.Ingest(frame(1, 2)); err != nil {
		t.Fatalf("frame 1: %v", err)
	}
	// The third write fails: the frame must be NACKed retryable, its seq
	// unspent, its events uncounted.
	err := c.Ingest(frame(2, 4))
	if !errors.Is(err, ErrArchive) || !retryable(err) {
		t.Fatalf("failed archive write: err = %v, want retryable ErrArchive", err)
	}
	// The failure is sticky: later event frames are refused without
	// touching the archiver.
	callsAfterFailure := arch.calls
	if err := c.Ingest(frame(3, 1)); !errors.Is(err, ErrArchive) {
		t.Fatalf("sticky refusal: %v", err)
	}
	if arch.calls != callsAfterFailure {
		t.Fatalf("sticky failure still called the archiver (%d -> %d calls)", callsAfterFailure, arch.calls)
	}
	// A retry of the failed frame is also NACKed — never ACKed unpersisted.
	if err := c.Ingest(frame(2, 4)); !errors.Is(err, ErrArchive) {
		t.Fatalf("retry of failed frame: %v", err)
	}

	s := c.Stats()
	if s.Events != 5 {
		t.Fatalf("Events = %d, want 5: NACKed frames must not count", s.Events)
	}
	if s.ArchiveErrors != 3 {
		t.Fatalf("ArchiveErrors = %d, want 3 (first failure + two refusals)", s.ArchiveErrors)
	}
	want := append(eventsPayload(3), eventsPayload(2)...)
	if !bytes.Equal(arch.accepted.Bytes(), want) {
		t.Fatalf("archive holds %q, want exactly the ACKed prefix %q", arch.accepted.Bytes(), want)
	}

	// The handler surfaces all of it: 503 on the frame, degraded healthz,
	// the errors counter in /metrics.
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(frame(4, 1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest during archive failure: %d, want 503", resp.StatusCode)
	}
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status       string `json:"status"`
		ArchiveError string `json:"archive_error"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable || health.Status != "degraded" || health.ArchiveError == "" {
		t.Fatalf("healthz = %d %+v, want 503 degraded with archive_error", hresp.StatusCode, health)
	}
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics bytes.Buffer
	metrics.ReadFrom(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(metrics.String(), "bba_collect_archive_errors_total 4") {
		t.Fatalf("metrics missing archive errors counter:\n%s", metrics.String())
	}

	// A batch a real store refuses as not canonical JSONL is the frame's
	// fault, not the archive's: a permanent 400 counted in FramesBad, its
	// seq unspent and the lane healthy, so the same stream's next try and
	// another stream's frame are archived.
	t.Run("a refused batch", func(t *testing.T) {
		st, err := archive.Open(archive.Config{Dir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		c := NewCollector(CollectorConfig{Archive: st})
		srv := httptest.NewServer(c.Handler())
		defer srv.Close()
		post := func(session uint64, payload []byte) int {
			t.Helper()
			f := AppendFrame(nil, Frame{Run: "r", Session: session, Seq: 0, Kind: PayloadEvents, Payload: payload})
			resp, err := http.Post(srv.URL+"/ingest", "application/octet-stream", bytes.NewReader(f))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		refused := [][]byte{
			[]byte("no newline"),
			[]byte(`{"kind":"martian_event","session":"s"}` + "\n"),
			append(eventsPayload(2), "not json\n"...),
		}
		for _, payload := range refused {
			if code := post(9, payload); code != http.StatusBadRequest {
				t.Fatalf("events payload %q: %d, want 400", payload, code)
			}
			if err := c.ArchiveError(); err != nil {
				t.Fatalf("events payload %q stuck the archive lane: %v", payload, err)
			}
		}
		if code := post(9, eventsPayload(2)); code != http.StatusNoContent {
			t.Fatalf("stream 9's seq 0 after its refusals: %d, want 204", code)
		}
		if code := post(1, eventsPayload(3)); code != http.StatusNoContent {
			t.Fatalf("stream 1's frame after the refusals: %d, want 204", code)
		}
		s := c.Stats()
		if s.FramesBad != int64(len(refused)) || s.ArchiveErrors != 0 || s.FramesRetry != 0 || s.Events != 5 {
			t.Fatalf("stats %+v, want %d bad frames, no archive errors or retries, 5 events", s, len(refused))
		}
		var got bytes.Buffer
		if err := st.Export("r", &got); err != nil {
			t.Fatal(err)
		}
		if want := append(eventsPayload(2), eventsPayload(3)...); !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("archive holds %q, want the two admitted frames %q", got.Bytes(), want)
		}
	})
}

// discardArchiver admits every fresh batch over in-memory watermarks and
// keeps none of it, as the Archiver contract asks.
type discardArchiver struct {
	archive.Watermarks
	batches int
}

func (a *discardArchiver) Admit(run string, session, seq uint64, batch []byte) (bool, error) {
	dup, err := a.Watermarks.Admit(run, session, seq, batch)
	if !dup && err == nil {
		a.batches++
	}
	return dup, err
}

// TestCollectorCopiesPayloadOnlyForSubscribers: the archive reads a frame's
// payload in place, so a fresh frame with no tail subscriber, and any
// duplicate, allocates no copy of it; a fresh frame with a subscriber
// allocates one, which survives the caller reusing its buffer.
func TestCollectorCopiesPayloadOnlyForSubscribers(t *testing.T) {
	arch := new(discardArchiver)
	c := NewCollector(CollectorConfig{Archive: arch})
	payload := eventsPayload(400)
	const frames = 20
	var fresh [frames + 1][]byte
	for seq := range fresh {
		fresh[seq] = AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: uint64(seq), Kind: PayloadEvents, Payload: payload})
	}
	// perIngest is the heap bytes each of frames ingests allocates.
	perIngest := func(frame func(i int) []byte) float64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < frames; i++ {
			if err := c.Ingest(frame(i)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / frames
	}
	// The first frame opens the stream; what follows is steady state.
	if err := c.Ingest(fresh[0]); err != nil {
		t.Fatal(err)
	}
	if got := perIngest(func(i int) []byte { return fresh[i+1] }); got > float64(len(payload))/4 {
		t.Errorf("a fresh frame with no subscriber allocates %.0f B, the payload is %d B: it was copied", got, len(payload))
	}
	if got := perIngest(func(i int) []byte { return fresh[i%len(fresh)] }); got > float64(len(payload))/4 {
		t.Errorf("a duplicate frame allocates %.0f B, the payload is %d B: it was copied", got, len(payload))
	}
	if arch.batches != frames+1 {
		t.Fatalf("archive took %d batches, want %d: duplicates must not be archived", arch.batches, frames+1)
	}

	tail, cancel := c.Subscribe(1)
	defer cancel()
	buf := AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: frames + 1, Kind: PayloadEvents, Payload: payload})
	if err := c.Ingest(buf); err != nil {
		t.Fatal(err)
	}
	clear(buf)
	if msg := <-tail; !bytes.Equal(msg.Payload, payload) {
		t.Fatal("the subscriber's batch changed with the caller's buffer: it was not copied")
	}
	if err := c.Ingest(fresh[3]); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-tail:
		t.Fatalf("a duplicate frame reached the subscriber: %d bytes", len(msg.Payload))
	default:
	}
}

// TestRestartArchivesNoFrameTwice reproduces the restart duplicate: a
// collector admits a frame into a store, the store is closed and reopened,
// and a second collector over it is sent the same frame again — as a
// shipper does when a restart loses the frame's 204. The store knows the
// frame was admitted, whether its batch is still in the live WAL at the
// reopen, was sealed into a block before it, or was sealed by the frame's
// own admission: the second copy is a duplicate, and the archive holds one.
func TestRestartArchivesNoFrameTwice(t *testing.T) {
	for _, tc := range []struct {
		name          string
		compactEvents int
		compact       bool
	}{
		{"in the live WAL", 0, false},
		{"sealed into a block", 0, true},
		{"sealed by its own admission", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := archive.Config{Dir: t.TempDir(), CompactEvents: tc.compactEvents}
			frame := AppendFrame(nil, Frame{Run: "r", Session: 1, Seq: 0, Kind: PayloadEvents, Payload: eventsPayload(2)})
			st, err := archive.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := NewCollector(CollectorConfig{Archive: st}).Ingest(frame); err != nil {
				t.Fatal(err)
			}
			if tc.compact {
				if err := st.Compact("r"); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if st, err = archive.Open(cfg); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			if stats := st.Stats(); len(stats) != 1 || (stats[0].Blocks == 1) != (tc.compact || tc.compactEvents > 0) {
				t.Fatalf("store before the re-send: %+v", stats)
			}
			c := NewCollector(CollectorConfig{Archive: st})
			if err := c.Ingest(frame); err != nil {
				t.Fatalf("the frame re-sent after the restart: %v, want it ACKed", err)
			}
			var got bytes.Buffer
			if err := st.Export("r", &got); err != nil {
				t.Fatal(err)
			}
			if s := c.Stats(); !bytes.Equal(got.Bytes(), eventsPayload(2)) || s.FramesDup != 1 || s.Events != 0 {
				t.Fatalf("archive holds %d lines, stats %+v; want the frame's 2 lines once and FramesDup 1", bytes.Count(got.Bytes(), []byte("\n")), s)
			}
		})
	}
}
