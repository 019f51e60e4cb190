package obs_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"bba/internal/obs"
)

// TestMainCancelsOnSIGTERM: a plain kill reaches run as a cancelled
// context instead of ending the process — the path every command's
// checkpoint-on-cancel and drain code hangs off.
func TestMainCancelsOnSIGTERM(t *testing.T) {
	ran := false
	obs.Main("test", func(ctx context.Context) error {
		ran = true
		if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case <-ctx.Done():
		case <-time.After(5 * time.Second):
			t.Error("SIGTERM did not cancel the context")
		}
		return nil
	})
	if !ran {
		t.Fatal("run not called")
	}
}

func TestWriteHealth(t *testing.T) {
	for _, tc := range []struct {
		healthy bool
		status  string
		fields  map[string]any
		code    int
		body    string
	}{
		{true, "ok", map[string]any{"runs": 2, "complete": false}, http.StatusOK, `{"complete":false,"runs":2,"status":"ok"}` + "\n"},
		{false, "degraded", map[string]any{"archive_error": "disk full"}, http.StatusServiceUnavailable, `{"archive_error":"disk full","status":"degraded"}` + "\n"},
		{true, "ok", nil, http.StatusOK, `{"status":"ok"}` + "\n"},
	} {
		rec := httptest.NewRecorder()
		obs.WriteHealth(rec, tc.healthy, tc.status, tc.fields)
		if rec.Code != tc.code || rec.Body.String() != tc.body {
			t.Errorf("WriteHealth(%v, %q) = %d %q, want %d %q", tc.healthy, tc.status, rec.Code, rec.Body.String(), tc.code, tc.body)
		}
		if got := rec.Header().Get("Content-Type"); got != "application/json" {
			t.Errorf("Content-Type %q", got)
		}
	}
}
