package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"bba/internal/archive"
	"bba/internal/telemetry"
	"bba/internal/units"
)

// fixtureStore writes a small two-group run into a block directory and
// returns the directory plus the run's canonical journal.
func fixtureStore(t *testing.T) (dir string, journal []byte) {
	t.Helper()
	dir = t.TempDir()
	st, err := archive.Open(archive.Config{Dir: dir, CompactEvents: 8})
	if err != nil {
		t.Fatal(err)
	}
	var batch []byte
	for i := 0; i < 24; i++ {
		kind := telemetry.ChunkComplete
		if i%6 == 5 {
			kind = telemetry.RebufferStart
		}
		batch = telemetry.AppendJSONL(batch[:0], telemetry.Event{
			Kind: kind, Session: fmt.Sprintf("d0.w0.s%d.BBA-%d", i, i%2),
			At: time.Duration(i) * time.Second, Chunk: i,
			RateIndex: -1, PrevRateIndex: -1, Rate: units.BitRate(1000 + i),
		})
		journal = append(journal, batch...)
		if err := st.Append("q", batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CompactAll(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir, journal
}

func runCLI(t *testing.T, o options) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), &out, io.Discard, o); err != nil {
		t.Fatalf("bbaquery %+v: %v", o, err)
	}
	return out.String()
}

// TestQueryTruncation holds both modes to saying when -limit cut the answer:
// the fixture holds 24 events, so a limit one above or exactly at 24 returns
// everything in silence, and one below returns 23 lines and the warning — an
// answer that merely fills its limit is not a truncated one.
func TestQueryTruncation(t *testing.T) {
	dir, journal := fixtureStore(t)
	st, err := archive.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mux := http.NewServeMux()
	archive.QueryHandler{Store: st}.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	lines := bytes.SplitAfter(journal, []byte("\n"))
	for _, mode := range []options{{dir: dir}, {url: srv.URL}} {
		for _, tc := range []struct {
			limit     int
			truncated bool
		}{{25, false}, {24, false}, {23, true}, {1, true}} {
			o := mode
			o.run, o.limit = "q", tc.limit
			var out, errw bytes.Buffer
			if err := run(context.Background(), &out, &errw, o); err != nil {
				t.Fatalf("bbaquery %+v: %v", o, err)
			}
			if want := bytes.Join(lines[:min(tc.limit, 24)], nil); !bytes.Equal(out.Bytes(), want) {
				t.Errorf("%+v: printed %d bytes, want the journal's first %d events", o, out.Len(), min(tc.limit, 24))
			}
			want := ""
			if tc.truncated {
				want = fmt.Sprintf("bbaquery: output truncated at -limit %d\n", tc.limit)
			}
			if errw.String() != want {
				t.Errorf("%+v: stderr %q, want %q", o, &errw, want)
			}
		}
	}
}

// failAfter is a writer that takes n bytes and then fails.
type failAfter struct{ n int }

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n -= len(p); w.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// TestQueryOfflineReportsWriteErrors: events go through one buffered writer,
// and an error from it — mid-scan or at the final flush — is the command's.
func TestQueryOfflineReportsWriteErrors(t *testing.T) {
	dir, journal := fixtureStore(t)
	for _, room := range []int{0, len(journal) - 1} {
		err := run(context.Background(), &failAfter{n: room}, io.Discard, options{dir: dir, run: "q", limit: 1000})
		if err == nil || !strings.Contains(err.Error(), "disk full") {
			t.Errorf("stdout failing after %d bytes: run returned %v", room, err)
		}
	}
}

func TestQueryOffline(t *testing.T) {
	dir, journal := fixtureStore(t)

	// -export reproduces the admitted journal byte-for-byte.
	if got := runCLI(t, options{dir: dir, run: "q", export: true}); got != string(journal) {
		t.Fatalf("export:\n%q\nwant:\n%q", got, journal)
	}
	// A full scan re-renders the same canonical lines.
	if got := runCLI(t, options{dir: dir, run: "q", limit: 1000}); got != string(journal) {
		t.Fatalf("scan differs from journal:\n%q", got)
	}
	// Predicates narrow it: 4 rebuffer_start rows, 12 group-BBA-1 rows.
	if got := runCLI(t, options{dir: dir, run: "q", kinds: "rebuffer_start", limit: 1000}); strings.Count(got, "\n") != 4 {
		t.Fatalf("kind filter: %q", got)
	}
	if got := runCLI(t, options{dir: dir, run: "q", group: "BBA-1", limit: 1000}); strings.Count(got, "\n") != 12 {
		t.Fatalf("group filter: %q", got)
	}
	if got := runCLI(t, options{dir: dir, run: "q", fromNS: int64(20 * time.Second), limit: 1000}); strings.Count(got, "\n") != 4 {
		t.Fatalf("from filter: %q", got)
	}
	if got := runCLI(t, options{dir: dir, run: "q", limit: 3}); strings.Count(got, "\n") != 3 {
		t.Fatalf("limit: %q", got)
	}

	// -agg returns the rollup; -runs lists the run.
	var rollup archive.Rollup
	if err := json.Unmarshal([]byte(runCLI(t, options{dir: dir, run: "q", agg: true})), &rollup); err != nil {
		t.Fatal(err)
	}
	if rollup.Run != "q" || rollup.Rows != 24 || len(rollup.Groups) != 2 {
		t.Fatalf("rollup: %+v", rollup)
	}
	if got := runCLI(t, options{dir: dir, runs: true}); !strings.Contains(got, `"run": "q"`) {
		t.Fatalf("runs: %q", got)
	}
}

func TestQueryLive(t *testing.T) {
	dir, journal := fixtureStore(t)
	st, err := archive.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	mux := http.NewServeMux()
	archive.QueryHandler{Store: st}.Register(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()

	if got := runCLI(t, options{url: srv.URL, run: "q", limit: 1000}); got != string(journal) {
		t.Fatalf("live scan:\n%q", got)
	}
	var rollup archive.Rollup
	if err := json.Unmarshal([]byte(runCLI(t, options{url: srv.URL, run: "q", agg: true})), &rollup); err != nil {
		t.Fatal(err)
	}
	if rollup.Rows != 24 {
		t.Fatalf("live rollup: %+v", rollup)
	}
	if got := runCLI(t, options{url: srv.URL, runs: true}); !strings.Contains(got, `"run":"q"`) {
		t.Fatalf("live runs: %q", got)
	}
	// Errors surface with the HTTP status attached.
	if err := run(context.Background(), new(bytes.Buffer), io.Discard, options{url: srv.URL, run: "nope", agg: true}); err == nil || !strings.Contains(err.Error(), "404") {
		t.Fatalf("unknown run: %v", err)
	}
}

func TestQueryFlagValidation(t *testing.T) {
	for _, o := range []options{
		{},                               // neither -dir nor -url
		{dir: "x", url: "y"},             // both
		{dir: "x"},                       // no -run
		{dir: "x", run: "r", tail: true}, // tail offline
		{dir: t.TempDir(), run: "r", kinds: "bogus"}, // bad kind
		{url: "http://0", run: "r", kinds: "bogus"},  // bad kind, live
	} {
		if err := run(context.Background(), new(bytes.Buffer), io.Discard, o); err == nil {
			t.Errorf("options %+v accepted", o)
		}
	}
}
