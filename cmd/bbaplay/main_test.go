package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bba/internal/archive"
	"bba/internal/collect"
	"bba/internal/dash"
	"bba/internal/media"
	"bba/internal/telemetry"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	video, err := media.NewVBR(media.VBRConfig{
		Ladder:        media.DefaultLadder(),
		ChunkDuration: 500 * time.Millisecond,
		NumChunks:     12,
	}, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dash.NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts
}

func TestPlayAgainstLocalServer(t *testing.T) {
	ts := testServer(t)
	var out bytes.Buffer
	if err := run(context.Background(), &out, ts.URL, "BBA-2", 3*time.Second, 0, 0, false, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "session summary") {
		t.Error("no summary printed")
	}
}

func TestPlayShaping(t *testing.T) {
	ts := testServer(t)
	var out bytes.Buffer
	if err := run(context.Background(), &out, ts.URL, "BBA-0", 2*time.Second, 8000, 560, false, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "average rate") {
		t.Error("no metrics printed")
	}
}

func TestPlayBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "http://127.0.0.1:1", "BBA-2", time.Second, 0, 0, false, true, ""); err == nil {
		t.Error("dead server accepted")
	}
	if err := run(context.Background(), &out, "http://127.0.0.1:1", "NOPE", time.Second, 0, 0, false, true, ""); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPlayWritesJournal(t *testing.T) {
	ts := testServer(t)
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "session.jsonl")
	if err := run(context.Background(), &out, ts.URL, "BBA-2", 2*time.Second, 0, 0, false, true, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if !strings.Contains(text, `"kind":"session_start"`) || !strings.Contains(text, `"kind":"session_end"`) {
		t.Errorf("journal missing session bracket events:\n%s", text)
	}
	if !strings.Contains(text, `"kind":"chunk_complete"`) {
		t.Error("journal has no chunk_complete events")
	}
}

func TestPlayWithWhatIf(t *testing.T) {
	ts := testServer(t)
	var out bytes.Buffer
	if err := run(context.Background(), &out, ts.URL, "BBA-2", 3*time.Second, 0, 0, true, true, ""); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "what-if on the observed network") {
		t.Error("what-if section missing")
	}
	for _, alg := range []string{"Control", "BBA-0", "BBA-Others"} {
		if !strings.Contains(text, alg) {
			t.Errorf("what-if table missing %s", alg)
		}
	}
}

// testCollector is an in-process bbacollect: it returns the collector, its
// URL, and a reader for the journal JSONL it has archived for any run.
func testCollector(t *testing.T) (c *collect.Collector, url string, archived func() []byte) {
	t.Helper()
	var (
		mu  sync.Mutex
		buf bytes.Buffer
	)
	c = collect.NewCollector(collect.CollectorConfig{Archive: &archiverFunc{fn: func(_ string, _ uint64, batch []byte) error {
		mu.Lock()
		defer mu.Unlock()
		buf.Write(batch)
		return nil
	}}})
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts.URL, func() []byte {
		mu.Lock()
		defer mu.Unlock()
		return append([]byte(nil), buf.Bytes()...)
	}
}

// archiverFunc archives each fresh batch, over in-memory watermarks, with fn.
type archiverFunc struct {
	archive.Watermarks
	fn func(run string, session uint64, batch []byte) error
}

func (f *archiverFunc) Admit(run string, session, seq uint64, batch []byte) (bool, error) {
	if dup, err := f.Watermarks.Admit(run, session, seq, batch); dup || err != nil {
		return dup, err
	}
	return false, f.fn(run, session, batch)
}

// TestPlayOneSessionID: each run draws one session id and sends it as every
// chunk request's s=, so a fault-mode origin tells its viewers apart; the
// shipped journal's stream is the same id, every shipped event is labelled
// with it in the decimal the origin's events use, and the summary prints it.
// Two runs send two different, non-zero ids.
func TestPlayOneSessionID(t *testing.T) {
	ts := testServer(t)
	var (
		mu      sync.Mutex
		fetched []string // each chunk request's s=
		shipped []uint64 // each admitted frame's stream
		lines   [][]byte // each admitted event
	)
	origin := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/chunk/") {
			mu.Lock()
			fetched = append(fetched, r.URL.Query().Get("s"))
			mu.Unlock()
		}
		ts.Config.Handler.ServeHTTP(w, r)
	}))
	defer origin.Close()
	c := collect.NewCollector(collect.CollectorConfig{Archive: &archiverFunc{fn: func(_ string, session uint64, batch []byte) error {
		mu.Lock()
		defer mu.Unlock()
		shipped = append(shipped, session)
		for _, line := range bytes.SplitAfter(batch, []byte("\n")) {
			if len(line) > 0 {
				lines = append(lines, line)
			}
		}
		return nil
	}}})
	col := httptest.NewServer(c.Handler())
	defer col.Close()

	var ids []string
	for i := 0; i < 2; i++ {
		mu.Lock()
		fetched, shipped, lines = nil, nil, nil
		mu.Unlock()
		var out bytes.Buffer
		if err := run(context.Background(), &out, origin.URL, "BBA-2", 2*time.Second, 0, 0, false, true, col.URL); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		if len(fetched) == 0 || len(shipped) == 0 {
			t.Fatalf("run %d: %d chunk requests, %d frames shipped", i, len(fetched), len(shipped))
		}
		id := fetched[0]
		if id == "" || id == "0" {
			t.Fatalf("run %d named itself s=%q to the origin, want a drawn non-zero id", i, id)
		}
		for _, s := range fetched {
			if s != id {
				t.Fatalf("run %d sent s=%s and s=%s: one session, two names", i, id, s)
			}
		}
		for _, s := range shipped {
			if strconv.FormatUint(s, 10) != id {
				t.Fatalf("run %d shipped its journal as stream %d, fetched as session %s", i, s, id)
			}
		}
		for _, line := range lines {
			if !bytes.Contains(line, []byte(`"session":"`+id+`"`)) {
				t.Fatalf("run %d shipped an event not labelled session %s: %s", i, id, line)
			}
		}
		mu.Unlock()
		if !strings.Contains(out.String(), "session id        "+id+"\n") {
			t.Errorf("run %d: summary does not print session id %s:\n%s", i, id, out.String())
		}
		ids = append(ids, id)
	}
	if ids[0] == ids[1] {
		t.Fatalf("both runs named themselves %s", ids[0])
	}
}

// TestPlayShipsJournal: -journal with a collector URL ships the session's
// events there as the run its path names; the session's whole journal has
// been acknowledged by the time run returns, and bbaplay wrote nothing
// under TMPDIR.
func TestPlayShipsJournal(t *testing.T) {
	ts := testServer(t)
	c, url, archived := testCollector(t)
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	var out bytes.Buffer
	if err := run(context.Background(), &out, ts.URL, "BBA-2", 2*time.Second, 0, 0, false, true, url+"/living-room"); err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(archived(), []byte("\n"))
	lines = lines[:len(lines)-1]
	if len(lines) < 3 {
		t.Fatalf("collector archived %d lines", len(lines))
	}
	for i, line := range lines {
		if _, ok := telemetry.ParseJSONL(line); !ok {
			t.Fatalf("archived line %d does not parse: %q", i, line)
		}
	}
	if first, last := string(lines[0]), string(lines[len(lines)-1]); !strings.Contains(first, `"kind":"session_start"`) || !strings.Contains(last, `"kind":"session_end"`) {
		t.Errorf("archived journal is not bracketed: first %q, last %q", first, last)
	}
	if cs := c.Stats(); cs.Events != int64(len(lines)) || cs.Streams != 1 || cs.FramesBad != 0 {
		t.Errorf("collector stats %+v, want %d events on one stream", cs, len(lines))
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("bbaplay left %v under TMPDIR (%v)", left, err)
	}
}

// TestPlayShipsToLateCollector: a collector that refuses every frame for
// its first 4 s — inside the shipper's retry budget — still receives the
// whole journal, session_start through session_end, held in memory
// meanwhile; run succeeds.
func TestPlayShipsToLateCollector(t *testing.T) {
	ts := testServer(t)
	c, _, archived := testCollector(t)
	collector := c.Handler()
	var refused atomic.Int64
	up := time.Now().Add(4 * time.Second)
	late := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if time.Now().Before(up) {
			refused.Add(1)
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
		collector.ServeHTTP(w, r)
	}))
	defer late.Close()
	var out bytes.Buffer
	if err := run(context.Background(), &out, ts.URL, "BBA-2", 2*time.Second, 0, 0, false, true, late.URL); err != nil {
		t.Fatal(err)
	}
	if refused.Load() == 0 {
		t.Fatal("the collector was up from the start; the test is vacuous")
	}
	lines := bytes.SplitAfter(archived(), []byte("\n"))
	lines = lines[:len(lines)-1]
	if len(lines) < 3 {
		t.Fatalf("collector archived %d lines", len(lines))
	}
	if first, last := string(lines[0]), string(lines[len(lines)-1]); !strings.Contains(first, `"kind":"session_start"`) || !strings.Contains(last, `"kind":"session_end"`) {
		t.Errorf("archived journal is not bracketed: first %q, last %q", first, last)
	}
	if cs := c.Stats(); cs.Events != int64(len(lines)) || cs.Streams != 1 || cs.FramesBad != 0 {
		t.Errorf("collector stats %+v, want %d events on one stream", cs, len(lines))
	}
}

// TestPlayJournalLossFails: a session whose events the collector never took
// must not exit 0.
func TestPlayJournalLossFails(t *testing.T) {
	ts := testServer(t)
	refuse := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no", http.StatusBadRequest)
	}))
	defer refuse.Close()
	var out bytes.Buffer
	err := run(context.Background(), &out, ts.URL, "BBA-2", time.Second, 0, 0, false, true, refuse.URL)
	if err == nil || !strings.Contains(err.Error(), "never reached") {
		t.Fatalf("run = %v, want the journal's loss reported", err)
	}
	if !strings.Contains(out.String(), "session summary") {
		t.Error("the session itself should still have been summarised")
	}
}

// TestPlayCancelFlushesJournal interrupts a session mid-stream, the way
// Ctrl-C or kill does through obs.Main: run must return the context error
// and leave a journal whose buffered tail was flushed — every line complete
// and parseable — whether the journal is a file or a collector.
func TestPlayCancelFlushesJournal(t *testing.T) {
	ts := testServer(t)
	path := filepath.Join(t.TempDir(), "session.jsonl")
	_, url, archived := testCollector(t)
	for _, sink := range []struct {
		name, journal string
		read          func() ([]byte, error)
	}{
		{"file", path, func() ([]byte, error) { return os.ReadFile(path) }},
		{"collector", url, func() ([]byte, error) { return archived(), nil }},
	} {
		t.Run(sink.name, func(t *testing.T) {
			var out bytes.Buffer
			// 200 kb/s makes each 500 ms chunk take longer than it plays, so the
			// 12-chunk title is still downloading when the context expires.
			ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
			defer cancel()
			err := run(ctx, &out, ts.URL, "BBA-0", time.Minute, 200, 0, false, true, sink.journal)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("run = %v, want the context error", err)
			}
			raw, err := sink.read()
			if err != nil {
				t.Fatal(err)
			}
			if len(raw) == 0 || raw[len(raw)-1] != '\n' {
				t.Fatalf("journal does not end on a complete line: %q", raw)
			}
			lines := bytes.SplitAfter(raw, []byte("\n"))
			lines = lines[:len(lines)-1]
			for i, line := range lines {
				if _, ok := telemetry.ParseJSONL(line); !ok {
					t.Fatalf("journal line %d does not parse: %q", i, line)
				}
			}
			if bytes.Contains(raw, []byte(`"kind":"session_end"`)) {
				t.Error("session finished before the cancel; the test is vacuous")
			}
			if !bytes.Contains(raw, []byte(`"kind":"chunk_complete"`)) {
				t.Error("no chunk completed before the cancel; the test is vacuous")
			}
		})
	}
}
