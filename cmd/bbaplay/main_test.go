package main

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
	if err := run(context.Background(), &out, ts.URL, "BBA-2", 3*time.Second, 0, 0, false, false, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "session summary") {
		t.Error("no summary printed")
	}
}

func TestPlayViaMPDAndShaping(t *testing.T) {
	ts := testServer(t)
	var out bytes.Buffer
	if err := run(context.Background(), &out, ts.URL, "BBA-0", 2*time.Second, 8000, 560, true, false, true, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "average rate") {
		t.Error("no metrics printed")
	}
}

func TestPlayBadInputs(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, "http://127.0.0.1:1", "BBA-2", time.Second, 0, 0, false, false, true, ""); err == nil {
		t.Error("dead server accepted")
	}
	if err := run(context.Background(), &out, "http://127.0.0.1:1", "NOPE", time.Second, 0, 0, false, false, true, ""); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestPlayWritesJournal(t *testing.T) {
	ts := testServer(t)
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "session.jsonl")
	if err := run(context.Background(), &out, ts.URL, "BBA-2", 2*time.Second, 0, 0, false, false, true, path); err != nil {
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
	if err := run(context.Background(), &out, ts.URL, "BBA-2", 3*time.Second, 0, 0, false, true, true, ""); err != nil {
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

// TestPlayCancelFlushesJournal interrupts a session mid-stream, the way
// Ctrl-C or kill does through obs.Main: run must return the context error
// and leave a journal whose buffered tail was flushed — every line complete
// and parseable.
func TestPlayCancelFlushesJournal(t *testing.T) {
	ts := testServer(t)
	var out bytes.Buffer
	path := filepath.Join(t.TempDir(), "session.jsonl")
	// 200 kb/s makes each 500 ms chunk take longer than it plays, so the
	// 12-chunk title is still downloading when the context expires.
	ctx, cancel := context.WithTimeout(context.Background(), 1500*time.Millisecond)
	defer cancel()
	err := run(ctx, &out, ts.URL, "BBA-0", time.Minute, 200, 0, false, false, true, path)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("run = %v, want the context error", err)
	}
	raw, err := os.ReadFile(path)
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
}
