package archive

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"bba/internal/telemetry"
)

// TestQueryHandlerTruncation holds /query to telling a cut answer from a
// whole one. The run's rebuffer_start events sit in three blocks and the WAL
// tail; with the limit one above their number, or exactly at it, the answer
// is complete and says nothing, and only one below is it cut and flagged —
// reaching the limit is not truncation, a match beyond it is.
func TestQueryHandlerTruncation(t *testing.T) {
	s, events := populate(t, 500)
	var want [][]byte
	for _, e := range referenceFilter(events, Query{Kinds: []telemetry.Kind{telemetry.RebufferStart}}) {
		want = append(want, telemetry.AppendJSONL(nil, e))
	}
	matches := len(want)
	if matches < 10 {
		t.Fatalf("only %d matching events", matches)
	}
	mux := http.NewServeMux()
	QueryHandler{Store: s}.Register(mux)
	for _, tc := range []struct {
		limit     int
		truncated string
	}{{matches + 1, ""}, {matches, ""}, {matches - 1, "1"}, {1, "1"}} {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/query?run=run1&kind=rebuffer_start&limit=%d", tc.limit), nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("limit %d: status %d: %s", tc.limit, rec.Code, rec.Body)
		}
		if got := rec.Header().Get(TruncatedHeader); got != tc.truncated {
			t.Errorf("limit %d over %d matching events: %s = %q, want %q", tc.limit, matches, TruncatedHeader, got, tc.truncated)
		}
		body := bytes.Join(want[:min(tc.limit, matches)], nil)
		if rec.Body.String() != string(body) {
			t.Errorf("limit %d: body is %d bytes, want the first %d matching events (%d bytes)", tc.limit, rec.Body.Len(), min(tc.limit, matches), len(body))
		}
	}
}
