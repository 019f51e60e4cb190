package player

import (
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/trace"
	"bba/internal/units"
)

func TestSeekJumpsAndFlushes(t *testing.T) {
	s := cbrStream(t, 900)
	res, log, _ := runLogged(t, Config{
		Algorithm:  abr.NewBBA2(),
		Stream:     s,
		Trace:      trace.Constant(8*units.Mbps, time.Hour),
		WatchLimit: 8 * time.Minute,
		Seeks: []Seek{
			{AfterPlayed: 3 * time.Minute, ToChunk: 600},
		},
	})
	if len(res.Seeks) != 1 {
		t.Fatalf("executed %d seeks, want 1", len(res.Seeks))
	}
	if res.Seeks[0].ToChunk != 600 {
		t.Errorf("seek went to %d", res.Seeks[0].ToChunk)
	}
	if res.Seeks[0].JoinDelay <= 0 {
		t.Error("post-seek join delay not recorded")
	}
	// Playback continues to the watch limit across the seek.
	if res.Played != 8*time.Minute {
		t.Errorf("played %v, want 8m", res.Played)
	}
	// Chunks from the seek target were downloaded.
	seen := false
	for _, c := range log {
		if c.Index >= 600 {
			seen = true
			break
		}
	}
	if !seen {
		t.Error("no chunks from the seek target")
	}
	// The flush and rebuild is not a rebuffer (it is join delay).
	if res.Rebuffers != 0 {
		t.Errorf("seek produced %d rebuffers", res.Rebuffers)
	}
}

func TestSeekReentersStartup(t *testing.T) {
	s := cbrStream(t, 900)
	alg := abr.NewBBA2()
	_, log, _ := runLogged(t, Config{
		Algorithm:  alg,
		Stream:     s,
		Trace:      trace.Constant(8*units.Mbps, time.Hour),
		WatchLimit: 6 * time.Minute,
		Seeks:      []Seek{{AfterPlayed: 3 * time.Minute, ToChunk: 450}},
	})
	// The first chunk after the seek must be back at R_min: empty buffer,
	// fresh startup phase.
	for i := 1; i < len(log); i++ {
		if log[i].Index == 450 && log[i-1].Index != 449 {
			if log[i].RateIndex != 0 {
				t.Errorf("first post-seek chunk at index %d, want R_min", log[i].RateIndex)
			}
			return
		}
	}
	t.Fatal("seek target chunk not found in the log")
}

func TestSeekOutOfRangeIgnored(t *testing.T) {
	s := cbrStream(t, 100)
	res, err := Run(Config{
		Algorithm:  abr.NewBBA0(),
		Stream:     s,
		Trace:      trace.Constant(4*units.Mbps, time.Hour),
		WatchLimit: 3 * time.Minute,
		Seeks: []Seek{
			{AfterPlayed: time.Minute, ToChunk: 5000}, // beyond the title
			{AfterPlayed: time.Minute, ToChunk: -3},   // nonsense
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeks) != 0 {
		t.Errorf("out-of-range seeks executed: %v", res.Seeks)
	}
	if res.Played != 3*time.Minute {
		t.Errorf("played %v", res.Played)
	}
}

func TestMultipleSeeks(t *testing.T) {
	s := cbrStream(t, 1800)
	res, err := Run(Config{
		Algorithm:  abr.NewBBAOthers(),
		Stream:     s,
		Trace:      trace.Constant(6*units.Mbps, 2*time.Hour),
		WatchLimit: 12 * time.Minute,
		Seeks: []Seek{
			{AfterPlayed: 3 * time.Minute, ToChunk: 500},
			{AfterPlayed: 6 * time.Minute, ToChunk: 1000},
			{AfterPlayed: 9 * time.Minute, ToChunk: 200}, // backward seek
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Seeks) != 3 {
		t.Fatalf("executed %d seeks, want 3", len(res.Seeks))
	}
	if res.Seeks[2].ToChunk != 200 {
		t.Error("backward seek not executed")
	}
	if res.Played != 12*time.Minute {
		t.Errorf("played %v", res.Played)
	}
	if res.Rebuffers != 0 {
		t.Errorf("%d rebuffers on a fast link", res.Rebuffers)
	}
}

// A session dominated by seeks spends most of its time in startup — the
// conclusion's "short video" regime, where BBA-2's estimation-assisted
// ramp earns clearly more rate than BBA-1's map-following.
func TestSeekHeavySessionFavorsBBA2(t *testing.T) {
	s := cbrStream(t, 1800)
	tr := trace.Constant(20*units.Mbps, 2*time.Hour)
	seeks := []Seek{
		{AfterPlayed: 2 * time.Minute, ToChunk: 400},
		{AfterPlayed: 4 * time.Minute, ToChunk: 800},
		{AfterPlayed: 6 * time.Minute, ToChunk: 1200},
	}
	run := func(a abr.Algorithm) float64 {
		res, err := Run(Config{
			Algorithm:  a,
			Stream:     s,
			Trace:      tr,
			WatchLimit: 8 * time.Minute,
			Seeks:      seeks,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.AvgRateKbps()
	}
	bba1 := run(abr.NewBBA1())
	bba2 := run(abr.NewBBA2())
	if bba2 <= bba1 {
		t.Errorf("seek-heavy session: BBA-2 %.0f not above BBA-1 %.0f", bba2, bba1)
	}
}
