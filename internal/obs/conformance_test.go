package obs_test

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/archive"
	"bba/internal/collect"
	"bba/internal/coord"
	"bba/internal/faults"
	"bba/internal/media"
	"bba/internal/obs"
	"bba/internal/player"
	"bba/internal/soak"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// TestExpositionConformance scrapes the repository's five metric sources,
// each after real activity, and holds every one of them to the same
// grammar and the same Content-Type. The wanted samples are a spot check
// that the numbers the source holds are the numbers that leave it.
func TestExpositionConformance(t *testing.T) {
	for _, src := range []struct {
		name     string
		handler  http.Handler
		families int
		want     map[string]float64 // sample (with label value appended, if any) → value
	}{
		{"telemetry.Prom", faultedProm(t), 15, map[string]float64{
			"bba_sessions_started_total":             1,
			"bba_sessions_completed_total":           1,
			"bba_faults_injected_total/server_error": -1, // present, count depends on the draw
			"bba_chunk_download_seconds_bucket/+Inf": -1,
			"bba_buffer_level_seconds_count":         -1,
			"bba_chunk_retries_total":                -1,
			"bba_downloaded_bytes_total":             -1,
			"bba_rebuffers_total":                    0,
			"bba_seeks_total":                        0,
			"bba_failovers_total":                    0,
		}},
		{"collect.Collector", busyCollector(t), 8, map[string]float64{
			"bba_collect_frames_total/events":    1,
			"bba_collect_frames_duplicate_total": 1,
			"bba_collect_frames_bad_total":       2,
			"bba_collect_frames_retry_total":     1,
			"bba_collect_events_total":           2,
			"bba_collect_streams_total":          1,
			"bba_collect_archive_errors_total":   1,
			"bba_collect_admit_seconds_count":    5, // every frame, whatever its verdict
			"bba_collect_admit_seconds_sum":      -1,
		}},
		{"archive.Store", compactedStore(t), 6, map[string]float64{
			"bba_archive_compact_seconds_bucket/+Inf": 2,
			"bba_archive_compact_seconds_count":       2,
			"bba_archive_compact_seconds_sum":         -1,
			"bba_archive_sealed_bytes_total":          -1,
			"bba_archive_sealed_rows_total":           6,
			"bba_archive_wal_events":                  3,
			"bba_archive_query_seconds_bucket/+Inf":   2,
			"bba_archive_query_seconds_count":         2,
			"bba_archive_query_seconds_sum":           -1,
			"bba_archive_query_blocks_total/read":     2,
			"bba_archive_query_blocks_total/pruned":   2,
		}},
		{"coord.Coordinator", finishedCoordinator(t), 12, map[string]float64{
			"bba_coord_workers_joined_total":   1,
			"bba_coord_shards_completed_total": 2,
			"bba_coord_shards_done":            2,
			"bba_coord_shards_pending":         0,
			"bba_coord_leases_active":          0,
			"bba_coord_oldest_lease_seconds":   0,
		}},
		{"soak.Metrics", cycledSoakMetrics(), 15, map[string]float64{
			"soak_cycles_total":                                2,
			"soak_cycle_failures_total":                        1,
			"soak_sessions_total":                              3,
			"soak_session_errors_total":                        1,
			"soak_rebuffers_total":                             2,
			"soak_stall_seconds_total":                         1.5,
			"soak_invariant_checks_total/terminates":           3,
			"soak_invariant_failures_total/failover_converges": 1,
			"soak_invariant_skipped_total/failover_converges":  1,
			"soak_consecutive_cycle_failures":                  1,
			"soak_last_cycle_duration_seconds":                 0.25,
			"soak_last_cycle_index":                            1,
		}},
	} {
		t.Run(src.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			src.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d", rec.Code)
			}
			if got := rec.Header().Get("Content-Type"); got != obs.ContentType {
				t.Errorf("Content-Type %q, want %q", got, obs.ContentType)
			}
			text := rec.Body.String()
			fams, err := parseExposition(text)
			if err != nil {
				t.Fatalf("%v\n%s", err, text)
			}
			if len(fams) != src.families {
				t.Errorf("%d families, want %d\n%s", len(fams), src.families, text)
			}
			got := map[string]float64{}
			for _, f := range fams {
				if f.help == "" {
					t.Errorf("family %s has no HELP text", f.name)
				}
				for _, s := range f.samples {
					key := s.name
					for _, v := range s.labels {
						key += "/" + v
					}
					got[key] = s.value
				}
			}
			for key, want := range src.want {
				v, ok := got[key]
				switch {
				case !ok:
					t.Errorf("sample %s missing\n%s", key, text)
				case want < 0 && v <= 0:
					t.Errorf("sample %s = %v, want > 0", key, v)
				case want >= 0 && v != want:
					t.Errorf("sample %s = %v, want %v", key, v, want)
				}
			}
		})
	}
}

// faultedProm streams one simulated session through a 5xx burst with a
// Prom observing it.
func faultedProm(t *testing.T) http.Handler {
	t.Helper()
	video, err := media.NewVBR(media.VBRConfig{
		Title: "conformance", Ladder: media.DefaultLadder(), NumChunks: 200,
	}, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.MustSchedule([]faults.Fault{
		{Kind: faults.ServerError, Start: time.Minute, Duration: 20 * time.Second},
	})
	prom := telemetry.NewProm("")
	if _, err := player.Run(player.Config{
		Algorithm:  abr.NewBBA2(),
		Stream:     abr.NewStream(video, 0),
		Trace:      trace.Constant(2500*units.Kbps, time.Hour),
		WatchLimit: 6 * time.Minute,
		Injector:   faults.NewSessionInjector(sched, 7),
		Observer:   prom,
	}); err != nil {
		t.Fatal(err)
	}
	return prom
}

// fullAfterOne is an archive, over in-memory watermarks, that persists one
// batch and then runs out of room.
type fullAfterOne struct {
	archive.Watermarks
	taken bool
}

func (a *fullAfterOne) Admit(run string, session, seq uint64, batch []byte) (bool, error) {
	if dup, err := a.Watermarks.Admit(run, session, seq, batch); dup || err != nil {
		return dup, err
	}
	if a.taken {
		return false, errors.New("disk full")
	}
	a.taken = true
	return false, nil
}

// busyCollector admits an event batch, then sees its duplicate, an
// undecodable frame, a frame of a kind it does not admit and a batch its
// archive cannot persist.
func busyCollector(t *testing.T) http.Handler {
	t.Helper()
	c := collect.NewCollector(collect.CollectorConfig{Archive: new(fullAfterOne)})
	ev := telemetry.Event{Kind: telemetry.BufferSample, Session: "s", RateIndex: -1, PrevRateIndex: -1, Buffer: time.Second}
	batch := telemetry.AppendJSONL(telemetry.AppendJSONL(nil, ev), ev)
	frame := func(seq uint64, kind collect.PayloadKind) []byte {
		return collect.AppendFrame(nil, collect.Frame{Run: "r", Session: 1, Seq: seq, Kind: kind, Payload: batch})
	}
	for _, step := range []struct {
		frame []byte
		ok    bool
	}{
		{frame(0, collect.PayloadEvents), true},
		{frame(0, collect.PayloadEvents), true}, // duplicate: acknowledged, counted once
		{[]byte("not a frame"), false},
		{frame(1, collect.PayloadKind(3)), false},
		{frame(1, collect.PayloadEvents), false}, // NACKed: the archive is full
	} {
		if err := c.Ingest(step.frame); (err == nil) != step.ok {
			t.Fatalf("ingest: %v, want ok=%v", err, step.ok)
		}
	}
	return c.Handler()
}

// compactedStore seals two blocks — four events by threshold inside an
// Append, two on request — and leaves three events in the WAL; then queries
// it twice: a rollup that reads both blocks, and a scan of a group no block
// holds, which prunes both on the footers the compactions recorded.
func compactedStore(t *testing.T) http.Handler {
	t.Helper()
	s, err := archive.Open(archive.Config{Dir: t.TempDir(), CompactEvents: 4})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	line := telemetry.AppendJSONL(nil, telemetry.Event{Kind: telemetry.BufferSample, Session: "s", RateIndex: -1, PrevRateIndex: -1})
	for i := 0; i < 9; i++ {
		if err := s.Append("r", line); err != nil {
			t.Fatal(err)
		}
		if i == 5 {
			if err := s.Compact("r"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := s.Aggregate(archive.Query{Run: "r"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Scan(archive.Query{Run: "r", Group: "nobody"}, func(telemetry.Event) bool { return true }); err != nil {
		t.Fatal(err)
	}
	return obs.Handler(s.WriteMetrics)
}

// finishedCoordinator runs a two-shard campaign to completion with one
// in-process worker.
func finishedCoordinator(t *testing.T) http.Handler {
	t.Helper()
	c, err := coord.New(coord.Config{
		Spec: coord.Spec{
			Seed: 41, Sessions: 16, ShardSize: 8, CatalogSize: 4, SketchSize: 64,
			Groups: []string{"Control", "BBA-0"},
		},
		LeaseShards: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()
	if _, err := coord.RunWorker(context.Background(), coord.WorkerConfig{
		URL: srv.URL, Name: "w", Parallelism: 1, Poll: 5 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	<-c.Done()
	return c.Handler()
}

// cycledSoakMetrics folds one passing and one failing cycle.
func cycledSoakMetrics() http.Handler {
	m := soak.NewMetrics()
	m.ObserveCycle(&soak.Cycle{
		Index:    0,
		Sessions: []soak.SessionRecord{{Result: &player.Result{Rebuffers: 2, StallTime: 1500 * time.Millisecond}}},
		Checks:   map[string]int{"terminates": 1},
		Skipped:  map[string]int{"failover_converges": 1},
		Duration: time.Second,
	})
	m.ObserveCycle(&soak.Cycle{
		Index:      1,
		Sessions:   []soak.SessionRecord{{Result: &player.Result{}}, {Err: context.Canceled}},
		Violations: []soak.Violation{{Invariant: "failover_converges", Session: "c1.s0"}},
		Checks:     map[string]int{"terminates": 2, "failover_converges": 1},
		Duration:   250 * time.Millisecond,
	})
	return m
}
