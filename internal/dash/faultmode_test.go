package dash

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/faults"
	"bba/internal/player"
	"bba/internal/stats"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// TestFaultModeRefusesUnnamedRequests is the negative table for the
// origin's fault-mode input: a chunk request that does not name its
// session (s), attempt (a) and session clock (t) cannot be decided, so a
// fault-mode origin answers it 400 naming the parameter, while a plain
// origin serves the same URL.
func TestFaultModeRefusesUnnamedRequests(t *testing.T) {
	video := testVideo(t, 4, 500*time.Millisecond)
	plain, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	faulty.Injector = &faults.HTTPInjector{
		Schedule: faults.MustSchedule([]faults.Fault{{Kind: faults.ServerError, Start: time.Hour, Duration: time.Hour}}),
		Seed:     1,
	}
	for _, c := range []struct {
		query string
		param string // "" for a request the fault-mode origin decides
	}{
		{"s=1&a=0&t=0", ""},
		{"s=18446744073709551615&a=9223372036854775807&t=3599999999999", ""},
		{"", "s"},
		{"a=0&t=0", "s"},
		{"s=&a=0&t=0", "s"},
		{"s=x&a=0&t=0", "s"},
		{"s=1.5&a=0&t=0", "s"},
		{"s=-1&a=0&t=0", "s"},
		{"s=18446744073709551616&a=0&t=0", "s"},
		{"s=1&t=0", "a"},
		{"s=1&a=x&t=0", "a"},
		{"s=1&a=-1&t=0", "a"},
		{"s=1&a=9223372036854775808&t=0", "a"},
		{"s=1&a=0", "t"},
		{"s=1&a=0&t=1s", "t"},
		{"s=1&a=0&t=-1", "t"},
		{"s=1&a=0&t=9223372036854775808", "t"},
	} {
		target := "/chunk/0/1?" + c.query
		rec := httptest.NewRecorder()
		plain.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("plain origin: %s answered %d, want 200", target, rec.Code)
		}
		rec = httptest.NewRecorder()
		faulty.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
		switch {
		case c.param == "" && rec.Code != http.StatusOK:
			t.Errorf("fault mode: %s answered %d, want 200 outside every episode", target, rec.Code)
		case c.param != "" && rec.Code != http.StatusBadRequest:
			t.Errorf("fault mode: %s answered %d, want 400", target, rec.Code)
		case c.param != "" && !strings.Contains(rec.Body.String(), "parameter "+c.param):
			t.Errorf("fault mode: %s answered %q, want it to name parameter %s", target, rec.Body.String(), c.param)
		}
	}
}

// faultAt is one injected fault: its kind, and the chunk and 0-based
// attempt it failed.
type faultAt struct {
	Kind           string
	Chunk, Attempt int
}

// TestSocketFaultsReplayInSimulator streams one session over a real socket
// against a fault-mode origin, then plays the same schedule, origin seed
// and session through player.Run with the simulator's injector: the
// origin's fault_inject events and the simulator's are the same ordered
// (kind, chunk, attempt) list.
func TestSocketFaultsReplayInSimulator(t *testing.T) {
	const originSeed, session = 5, 11
	for _, kind := range []faults.Kind{faults.ServerError, faults.ConnReset} {
		t.Run(kind.String(), func(t *testing.T) {
			video := testVideo(t, 10, 500*time.Millisecond)
			sched := faults.MustSchedule([]faults.Fault{{Kind: kind, Start: 0, Duration: time.Hour}})
			srv, err := NewServer(video)
			if err != nil {
				t.Fatal(err)
			}
			srv.Injector = &faults.HTTPInjector{Schedule: sched, Seed: originSeed}
			// On one origin a chunk's faults are its leading attempts, so
			// the k-th fault event for a chunk is its attempt k.
			var mu sync.Mutex
			var origin []faultAt
			originAttempts := map[int]int{}
			srv.Observer = telemetry.Func(func(e telemetry.Event) {
				if e.Kind != telemetry.FaultInject {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				if e.Session != strconv.Itoa(session) {
					t.Errorf("origin fault_inject names session %q, want %d", e.Session, session)
				}
				origin = append(origin, faultAt{e.Label, e.Chunk, originAttempts[e.Chunk]})
				originAttempts[e.Chunk]++
			})
			ts := httptest.NewServer(srv)
			defer ts.Close()

			res, err := Stream(context.Background(), ClientConfig{
				BaseURL:   ts.URL,
				Algorithm: abr.NewBBA0(),
				Fetch:     FetchPolicy{MaxAttempts: 64, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond, Seed: session},
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Incomplete {
				t.Fatal("a chunk was abandoned: pick seeds whose longest fault run fits MaxAttempts")
			}

			var sim []faultAt
			attempts := map[int]int{}
			simRes, err := player.Run(player.Config{
				Algorithm: abr.NewBBA0(),
				Stream:    abr.NewStream(video, 0),
				Trace:     trace.Constant(5*units.Mbps, time.Hour),
				Injector:  faults.NewSessionInjector(sched, int64(stats.Mix(originSeed, session))),
				Observer: telemetry.Func(func(e telemetry.Event) {
					if e.Kind == telemetry.FaultInject {
						sim = append(sim, faultAt{e.Label, e.Chunk, attempts[e.Chunk]})
						attempts[e.Chunk]++
					}
				}),
			})
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(sim) == 0 {
				t.Fatal("the simulator injected no fault: the comparison decides nothing")
			}
			if !reflect.DeepEqual(origin, sim) {
				t.Fatalf("origin injected %v\nsimulator injected %v", origin, sim)
			}
			if res.Retries != simRes.Retries {
				t.Fatalf("socket session retried %d times, simulated %d", res.Retries, simRes.Retries)
			}
		})
	}
}

// TestSessionsDoNotShareFaultDraws runs four sessions concurrently against
// one fault-mode origin: each session's (chunk, attempt) retry history is
// the one it has streaming alone, and the origin's fault_inject events,
// grouped by the session they name, are that same history.
func TestSessionsDoNotShareFaultDraws(t *testing.T) {
	video := testVideo(t, 10, 500*time.Millisecond)
	srv, err := NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	srv.Injector = &faults.HTTPInjector{
		Schedule: faults.MustSchedule([]faults.Fault{{Kind: faults.ServerError, Start: 0, Duration: time.Hour}}),
		Seed:     3,
	}
	var mu sync.Mutex
	origin := map[string][]faultAt{}
	srv.Observer = telemetry.Func(func(e telemetry.Event) {
		if e.Kind != telemetry.FaultInject {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		retries := origin[e.Session]
		attempt := 1
		for _, r := range retries {
			if r.Chunk == e.Chunk {
				attempt++
			}
		}
		origin[e.Session] = append(retries, faultAt{Chunk: e.Chunk, Attempt: attempt})
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	history := func(seed int64) ([]faultAt, error) {
		var retries []faultAt
		attempts := map[int]int{}
		res, err := Stream(context.Background(), ClientConfig{
			BaseURL:   ts.URL,
			Algorithm: abr.NewBBA0(),
			Fetch:     FetchPolicy{MaxAttempts: 64, BackoffBase: time.Millisecond, BackoffCap: 2 * time.Millisecond, Seed: seed},
			Observer: telemetry.Func(func(e telemetry.Event) {
				if e.Kind == telemetry.ChunkRetry {
					attempts[e.Chunk]++
					retries = append(retries, faultAt{Chunk: e.Chunk, Attempt: attempts[e.Chunk]})
				}
			}),
		})
		if err == nil && res.Incomplete {
			err = ErrChunkFailed
		}
		return retries, err
	}

	seeds := []int64{1, 2, 3, 4}
	alone := make([][]faultAt, len(seeds))
	for i, seed := range seeds {
		var err error
		if alone[i], err = history(seed); err != nil {
			t.Fatalf("session %d alone: %v", seed, err)
		}
		if len(alone[i]) == 0 {
			t.Fatalf("session %d alone retried nothing: the comparison decides nothing", seed)
		}
	}
	if reflect.DeepEqual(alone[0], alone[1]) {
		t.Fatal("two sessions drew the same retry history: sessions are not keyed apart")
	}
	// An injected 503 is observed before it is written, so every event of
	// the solo sessions is in by now.
	mu.Lock()
	origin = map[string][]faultAt{}
	mu.Unlock()
	together := make([][]faultAt, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i], errs[i] = history(seed)
		}()
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("session %d concurrent: %v", seed, errs[i])
		}
		if !reflect.DeepEqual(together[i], alone[i]) {
			t.Errorf("session %d: concurrent retry history %v, alone %v", seed, together[i], alone[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(origin) != len(seeds) {
		t.Errorf("origin fault_inject events name %d sessions, want %d", len(origin), len(seeds))
	}
	for i, seed := range seeds {
		if got := origin[strconv.FormatInt(seed, 10)]; !reflect.DeepEqual(got, together[i]) {
			t.Errorf("session %d: origin injected %v, client retried %v", seed, got, together[i])
		}
	}
}
