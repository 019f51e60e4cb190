package obs_test

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"net/http"
	"net/http/httptest"
	"strings"
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

// TestParse pins the mapping from the flag package's outcomes onto Main's
// exit codes: -h is done and not an error, an undefined flag or a stray
// positional argument is ErrUsage with the diagnosis and usage already
// printed.
func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		done    bool
		usage   bool
		printed string
	}{
		{"accepted", []string{"-n", "3"}, false, false, ""},
		{"help", []string{"-h"}, true, false, "Usage of cmd"},
		{"undefined flag", []string{"-nope"}, true, true, "flag provided but not defined: -nope"},
		{"stray argument", []string{"-n", "3", "stray"}, true, true, `unexpected argument "stray"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var errw bytes.Buffer
			fs := flag.NewFlagSet("cmd", flag.ContinueOnError)
			fs.SetOutput(&errw)
			fs.Int("n", 0, "a number")
			done, err := obs.Parse(fs, tc.args)
			if done != tc.done || errors.Is(err, obs.ErrUsage) != tc.usage || (err != nil) != tc.usage {
				t.Errorf("Parse = (%v, %v), want done=%v usage=%v", done, err, tc.done, tc.usage)
			}
			if !strings.Contains(errw.String(), tc.printed) || (tc.printed == "" && errw.Len() > 0) {
				t.Errorf("printed %q, want it to contain %q", errw.String(), tc.printed)
			}
		})
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
