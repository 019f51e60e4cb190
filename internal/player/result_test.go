package player

import (
	"strings"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/media"
	"bba/internal/trace"
	"bba/internal/units"
)

// TestRateHelpersEmptySession pins the degenerate-session contract: a
// result with no chunks and no play time reports zero for every rate
// helper instead of NaN or a panic.
func TestRateHelpersEmptySession(t *testing.T) {
	r := &Result{}
	for name, got := range map[string]float64{
		"AvgRateKbps":          r.AvgRateKbps(),
		"SteadyAvgRateKbps":    r.SteadyAvgRateKbps(),
		"StartupAvgRateKbps":   r.StartupAvgRateKbps(),
		"RebuffersPerPlayhour": r.RebuffersPerPlayhour(),
		"SwitchesPerPlayhour":  r.SwitchesPerPlayhour(),
		"PlayHours":            r.PlayHours(),
	} {
		if got != 0 {
			t.Errorf("%s = %v on empty session, want 0", name, got)
		}
	}
}

// rungPerChunk fetches chunk k at rung k.
type rungPerChunk struct{}

func (rungPerChunk) Name() string                        { return "rung-per-chunk" }
func (rungPerChunk) Next(st abr.State, _ abr.Stream) int { return st.NextChunk }

// deliverAt drives a Session by hand through a title of one chunk per rung
// of ladder, chunk k fetched at rung k and its download started at
// starts[k]; the last download takes a second.
func deliverAt(t *testing.T, ladder media.Ladder, starts []time.Duration) *Result {
	t.Helper()
	v, err := media.NewCBR("edges", ladder, media.DefaultChunkDuration, len(starts))
	if err != nil {
		t.Fatal(err)
	}
	var ss Session
	if err := ss.Start(Config{Algorithm: rungPerChunk{}, Stream: abr.NewStream(v, 0)}); err != nil {
		t.Fatal(err)
	}
	for k := range starts {
		req, done := ss.Request()
		if done || ss.Now() != starts[k] {
			t.Fatalf("chunk %d requested at %v (done %v), want %v", k, ss.Now(), done, starts[k])
		}
		dl := time.Second
		if k+1 < len(starts) {
			dl = starts[k+1] - starts[k]
		}
		if _, err := ss.Deliver(req, req.Bytes, dl); err != nil {
			t.Fatal(err)
		}
	}
	return ss.Result()
}

// TestRateHelpersStartupOnly pins the window boundaries: a session whose
// chunks all land inside the first minute has a startup rate and an
// average rate but no steady-state rate (the paper's 2-minute cutoff was
// never reached).
func TestRateHelpersStartupOnly(t *testing.T) {
	r := deliverAt(t, media.Ladder{1000 * units.Kbps, 2000 * units.Kbps, 3000 * units.Kbps},
		[]time.Duration{0, 20 * time.Second, 40 * time.Second})
	if got := r.SteadyAvgRateKbps(); got != 0 {
		t.Errorf("SteadyAvgRateKbps = %v for a sub-2-minute session, want 0", got)
	}
	if got := r.StartupAvgRateKbps(); got != 2000 {
		t.Errorf("StartupAvgRateKbps = %v, want 2000", got)
	}
	if got := r.AvgRateKbps(); got != 2000 {
		t.Errorf("AvgRateKbps = %v, want 2000", got)
	}
}

// TestRateHelpersWindowEdges pins the exact boundary semantics: a chunk
// starting exactly at 1 minute is excluded from startup, and one starting
// exactly at 2 minutes is included in steady state.
func TestRateHelpersWindowEdges(t *testing.T) {
	r := deliverAt(t, media.Ladder{1000 * units.Kbps, 2000 * units.Kbps, 4000 * units.Kbps},
		[]time.Duration{0, time.Minute, 2 * time.Minute})
	if got := r.StartupAvgRateKbps(); got != 1000 {
		t.Errorf("StartupAvgRateKbps = %v, want 1000 (t=60s chunk excluded)", got)
	}
	if got := r.SteadyAvgRateKbps(); got != 4000 {
		t.Errorf("SteadyAvgRateKbps = %v, want 4000 (t=120s chunk included)", got)
	}
}

// TestLadderBound: the rate record keeps one uint8 rung index per chunk, so
// a session ladder longer than 256 rungs is refused with the bound named,
// and one of exactly 256 plays.
func TestLadderBound(t *testing.T) {
	for _, rungs := range []int{maxRungs, maxRungs + 1} {
		ladder := make(media.Ladder, rungs)
		for i := range ladder {
			ladder[i] = units.BitRate(100+i) * units.Kbps
		}
		v, err := media.NewCBR("wide", ladder, media.DefaultChunkDuration, 4)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(Config{Algorithm: abr.RmaxAlways{}, Stream: abr.NewStream(v, 0), Trace: trace.Constant(100*units.Mbps, time.Hour)})
		if rungs <= maxRungs {
			if err != nil || res.ChunkRateKbps(res.ChunkCount()-1) != ladder.Max().Kilobits() {
				t.Errorf("%d rungs: err %v; want the session played at the top rung", rungs, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "at most 256 rungs") {
			t.Errorf("%d rungs: err = %v, want a refusal naming the 256-rung bound", rungs, err)
		}
	}
}
