package player_test

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/dash"
	"bba/internal/media"
	"bba/internal/netem"
	"bba/internal/player"
	"bba/internal/sharedlink"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// The tests in this file hold the other two drivers of player.Session to
// what Step is held to. They live in the external test package because dash
// and sharedlink import player.

// TestSharedLinkAloneMatchesRun: one sharedlink player alone on the link is
// the single-session engine — the same decisions chunk by chunk and the same
// accounting to the nanosecond, on a constant link and on one whose rate
// steps down in the middle of a download.
func TestSharedLinkAloneMatchesRun(t *testing.T) {
	video, err := media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: 450}, rand.New(rand.NewSource(21)))
	if err != nil {
		t.Fatal(err)
	}
	const (
		watch = 20 * time.Minute
		step  = 7*time.Minute + 123456789*time.Nanosecond
	)
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
	}{
		{"constant", trace.Constant(2350*units.Kbps, 2*time.Hour)},
		{"step", trace.Step(2350*units.Kbps, 1100*units.Kbps, step, 2*time.Hour)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var events []telemetry.Event
			want, err := player.Run(player.Config{
				Algorithm: abr.NewBBA2(), Stream: abr.NewStream(video, 0), Trace: tc.tr, WatchLimit: watch,
				Observer: telemetry.Func(func(e telemetry.Event) { events = append(events, e) }),
			})
			if err != nil {
				t.Fatal(err)
			}
			shared, err := sharedlink.Run(sharedlink.Config{
				Trace: tc.tr,
				Players: []sharedlink.PlayerConfig{{
					Algorithm: abr.NewBBA2(), Stream: abr.NewStream(video, 0), WatchLimit: watch,
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			got := shared.Players[0]

			if !reflect.DeepEqual(got, want) {
				t.Errorf("sharedlink result %+v\nplayer.Run result %+v", got, want)
			}
			if want.Switches == 0 {
				t.Error("scenario never switched rate; test is vacuous")
			}
			if tc.name == "step" {
				straddled := false
				for _, e := range events {
					straddled = straddled || (e.Kind == telemetry.ChunkComplete && e.At-e.Duration < step && e.At > step)
				}
				if !straddled {
					t.Error("no download spans the rate step; test is vacuous")
				}
			}
		})
	}
}

// dashOrigin serves a short VBR title of 250 ms chunks; every request for
// chunk dead (any rate) is answered 503, and dead < 0 fails none.
func dashOrigin(t *testing.T, chunks, dead int) string {
	t.Helper()
	video, err := media.NewVBR(media.VBRConfig{
		Ladder: media.DefaultLadder(), ChunkDuration: 250 * time.Millisecond, NumChunks: chunks,
	}, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dash.NewServer(video)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var rate, chunk int
		if _, err := fmt.Sscanf(r.URL.Path, "/chunk/%d/%d", &rate, &chunk); err == nil && chunk == dead {
			http.Error(w, "injected failure", http.StatusServiceUnavailable)
			return
		}
		srv.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts.URL
}

// TestStreamEventGrammarStarved runs a real dash.Stream session over a
// netem-shaped link that starves mid-session and holds its events to the
// grammar the simulator's are held to.
func TestStreamEventGrammarStarved(t *testing.T) {
	url := dashOrigin(t, 12, -1)
	// Fast, then far below the lowest rung (a 250 ms chunk at 235 kb/s is
	// ~7 KB; 40 kb/s moves 5 KB/s), then fast again so the session ends.
	link := trace.MustNew([]trace.Segment{
		{Duration: 200 * time.Millisecond, Rate: units.Mbps},
		{Duration: 1500 * time.Millisecond, Rate: 40 * units.Kbps},
		{Duration: time.Hour, Rate: 4 * units.Mbps},
	})
	shaper := netem.NewShaper(link)
	capture := &telemetry.Capture{}
	res, err := dash.Stream(context.Background(), dash.ClientConfig{
		BaseURL: url,
		HTTPClient: &http.Client{Transport: &http.Transport{
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				c, err := (&net.Dialer{}).DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return netem.NewConn(c, shaper), nil
			},
		}},
		Algorithm: abr.RminAlways{},
		BufferMax: 500 * time.Millisecond,
		Observer:  capture,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebuffers == 0 || res.Incomplete {
		t.Fatalf("rebuffers=%d incomplete=%v; the link was meant to starve the session and let it recover", res.Rebuffers, res.Incomplete)
	}
	if res.ChunkCount() != 12 {
		t.Errorf("downloaded %d chunks, want 12", res.ChunkCount())
	}
	player.CheckEventGrammar(t, capture.Events, res)
}

// TestStreamEventGrammarAbandoned: a chunk that fails past the attempt
// budget ends a real session the way a terminal outage ends a simulated
// one — outage marker, no rebuffer_end after it, tail played out.
func TestStreamEventGrammarAbandoned(t *testing.T) {
	url := dashOrigin(t, 8, 3)
	capture := &telemetry.Capture{}
	res, err := dash.Stream(context.Background(), dash.ClientConfig{
		BaseURL:   url,
		Algorithm: abr.NewBBA0(),
		Fetch:     dash.FetchPolicy{MaxAttempts: 3, BackoffBase: time.Millisecond, BackoffCap: 5 * time.Millisecond},
		Observer:  capture,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Incomplete || res.ChunkCount() != 3 || res.Retries != 2 {
		t.Fatalf("incomplete=%v chunks=%d retries=%d, want an abandoned session after 3 chunks and 2 retries",
			res.Incomplete, res.ChunkCount(), res.Retries)
	}
	if res.Played != 750*time.Millisecond {
		t.Errorf("played %v, want the 750ms buffered before the dead chunk", res.Played)
	}
	player.CheckEventGrammar(t, capture.Events, res)
}
