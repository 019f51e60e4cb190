package sharedlink

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/media"
	"bba/internal/trace"
	"bba/internal/units"
)

func stream(t testing.TB, seed int64, chunks int) abr.Stream {
	t.Helper()
	v, err := media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: chunks}, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	return abr.NewStream(v, 0)
}

func TestValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	if _, err := Run(Config{Trace: trace.Constant(units.Mbps, time.Hour)}); err == nil {
		t.Error("no players accepted")
	}
	if _, err := Run(Config{
		Trace:   trace.Constant(units.Mbps, time.Hour),
		Players: []PlayerConfig{{Stream: stream(t, 1, 10)}},
	}); err == nil {
		t.Error("nil algorithm accepted")
	}
}

func TestSinglePlayerMatchesCapacity(t *testing.T) {
	// One player alone on the link behaves like the single-session
	// engine: steady-state rate ≈ capacity, no rebuffers.
	s := stream(t, 2, 450)
	res, err := Run(Config{
		Trace: trace.Constant(2350*units.Kbps, 2*time.Hour),
		Players: []PlayerConfig{{
			Algorithm:  abr.NewBBA2(),
			Stream:     s,
			WatchLimit: 20 * time.Minute,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Players[0]
	if p.Rebuffers != 0 {
		t.Errorf("rebuffers = %d", p.Rebuffers)
	}
	if p.Played != 20*time.Minute {
		t.Errorf("played %v", p.Played)
	}
	steady := p.SteadyAvgRateKbps()
	if steady < 1600 || steady > 2450 {
		t.Errorf("steady rate %.0f, want ≈ capacity 2350", steady)
	}
}

func TestTwoIdenticalPlayersShareFairly(t *testing.T) {
	// Section 8: identical buffer-based players on a shared link split
	// capacity evenly.
	tr := trace.Constant(5*units.Mbps, 2*time.Hour)
	mk := func(seed int64) PlayerConfig {
		return PlayerConfig{
			Algorithm:  abr.NewBBA2(),
			Stream:     stream(t, seed, 450),
			WatchLimit: 15 * time.Minute,
		}
	}
	res, err := Run(Config{Trace: tr, Players: []PlayerConfig{mk(3), mk(4)}})
	if err != nil {
		t.Fatal(err)
	}
	if fi := res.FairnessIndex(); fi < 0.95 {
		t.Errorf("fairness index = %.3f, want ≥ 0.95", fi)
	}
	for i, p := range res.Players {
		if p.Rebuffers != 0 {
			t.Errorf("player %d rebuffered %d times on a 5Mb/s link", i, p.Rebuffers)
		}
		// Each should see roughly half the link in steady state.
		steady := p.SteadyAvgRateKbps()
		if steady < 1500 || steady > 3200 {
			t.Errorf("player %d steady rate %.0f, want ≈2500", i, steady)
		}
	}
}

func TestAbundantCapacityAllReachRmax(t *testing.T) {
	// With capacity far above 2·R_max both players buffer to full, go
	// ON-OFF, and stream R_max — "all players have reached Rmax, and so
	// the algorithm is fair".
	tr := trace.Constant(40*units.Mbps, 2*time.Hour)
	mk := func(seed int64) PlayerConfig {
		return PlayerConfig{
			Algorithm:  abr.NewBBA2(),
			Stream:     stream(t, seed, 450),
			WatchLimit: 15 * time.Minute,
		}
	}
	res, err := Run(Config{Trace: tr, Players: []PlayerConfig{mk(5), mk(6)}})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Players {
		if last := p.ChunkRateKbps(p.ChunkCount() - 1); last != 5000 {
			t.Errorf("player %d ended at %v kb/s, want R_max", i, last)
		}
	}
	if fi := res.FairnessIndex(); fi < 0.98 {
		t.Errorf("fairness = %.3f", fi)
	}
}

func TestBulkFlowCompetition(t *testing.T) {
	// A BBA player sharing a 6 Mb/s link with one long-lived bulk flow
	// should hold roughly its fair half (≈3 Mb/s) in steady state, not
	// spiral downward. CBR keeps nominal and transferred rates equal so
	// the fair share is exact.
	cbr, err := media.NewCBR("cbr", media.DefaultLadder(), media.DefaultChunkDuration, 450)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{
		Trace:     trace.Constant(6*units.Mbps, 2*time.Hour),
		BulkFlows: 1,
		Players: []PlayerConfig{{
			Algorithm:  abr.NewBBA2(),
			Stream:     abr.NewStream(cbr, 0),
			WatchLimit: 15 * time.Minute,
		}},
		Horizon: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := res.Players[0]
	steady := p.SteadyAvgRateKbps()
	if steady < 2000 || steady > 3600 {
		t.Errorf("steady rate %.0f kb/s against a bulk flow on 6Mb/s, want ≈3000", steady)
	}
	if res.BulkBytes == 0 {
		t.Error("bulk flow moved no traffic")
	}
	// The bulk flow gets the whole link during the player's OFF periods,
	// so over the horizon it must move at least its fair half of what
	// the player's session window allows.
	if p.Rebuffers != 0 {
		t.Errorf("rebuffers = %d", p.Rebuffers)
	}
}

func TestStaggeredJoin(t *testing.T) {
	// The second player joins mid-session; both must still complete and
	// the first player's early chunks see the whole link.
	tr := trace.Constant(5*units.Mbps, 2*time.Hour)
	const startAt = 3 * time.Minute
	res, err := Run(Config{
		Trace: tr,
		Players: []PlayerConfig{
			{Algorithm: abr.NewBBA2(), Stream: stream(t, 8, 450), WatchLimit: 10 * time.Minute},
			{Algorithm: abr.NewBBA2(), Stream: stream(t, 9, 450), WatchLimit: 10 * time.Minute, StartAt: startAt},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Players[0].Played != 10*time.Minute || res.Players[1].Played != 10*time.Minute {
		t.Errorf("players played %v and %v", res.Players[0].Played, res.Players[1].Played)
	}
	// The first chunk is requested at R_min and is the whole session's
	// download until it lands.
	first := stream(t, 8, 450).ChunkSize(0, 0)
	if tp := units.Throughput(first, res.Players[0].JoinDelay); tp < 4*units.Mbps {
		t.Errorf("solo-phase chunk saw %v, want ≈5Mb/s", tp)
	}
	// The late joiner runs on its own session clock: link time is StartAt
	// plus session time, and its join delay does not include the wait to
	// join.
	late := res.Players[1]
	if late.JoinDelay >= 30*time.Second {
		t.Errorf("late joiner's JoinDelay = %v, want session-relative (< 30s)", late.JoinDelay)
	}
	if late.StartupAvgRateKbps() == 0 {
		t.Error("late joiner has no startup-window chunks; Start is not session-relative")
	}
}

func TestHorizonCutoff(t *testing.T) {
	res, err := Run(Config{
		Trace: trace.Constant(100*units.Kbps, time.Hour), // painfully slow
		Players: []PlayerConfig{{
			Algorithm: abr.RminAlways{},
			Stream:    stream(t, 10, 450),
		}},
		Horizon: 2 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Players[0].End > 2*time.Minute {
		t.Errorf("session ran past the horizon: %v", res.Players[0].End)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		res, err := Run(Config{
			Trace: trace.Markov(trace.MarkovConfig{Base: 4 * units.Mbps, Sigma: 0.8, Duration: time.Hour}, rand.New(rand.NewSource(11))),
			Players: []PlayerConfig{
				{Algorithm: abr.NewBBA2(), Stream: stream(t, 12, 450), WatchLimit: 10 * time.Minute},
				{Algorithm: abr.NewControl(), Stream: stream(t, 13, 450), WatchLimit: 10 * time.Minute},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Players {
		if a.Players[i].Rebuffers != b.Players[i].Rebuffers ||
			a.Players[i].AvgRateKbps() != b.Players[i].AvgRateKbps() ||
			a.Players[i].ChunkCount() != b.Players[i].ChunkCount() {
			t.Fatalf("player %d differs between identical runs", i)
		}
	}
}

// TestRunDeterministic: flows at the same instant settle in a fixed order,
// so re-running one contended scenario reproduces every player's result
// and the bulk traffic exactly.
func TestRunDeterministic(t *testing.T) {
	titles := []abr.Stream{stream(t, 14, 300), stream(t, 15, 300)}
	for _, r := range []units.BitRate{2 * units.Mbps, 5 * units.Mbps, 9 * units.Mbps, 20 * units.Mbps} {
		for bulk := 0; bulk <= 1; bulk++ {
			run := func() *Result {
				players := make([]PlayerConfig, 4)
				for i := range players {
					var alg abr.Algorithm = abr.NewBBA2()
					if i%2 == 1 {
						alg = abr.NewControl()
					}
					players[i] = PlayerConfig{Algorithm: alg, Stream: titles[i/2], WatchLimit: 10 * time.Minute}
				}
				res, err := Run(Config{
					Trace:     trace.Step(r, r/3, 3*time.Minute, 2*time.Hour),
					Players:   players,
					BulkFlows: bulk,
					Horizon:   time.Hour,
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			first := run()
			for k := 1; k < 20; k++ {
				again := run()
				if !reflect.DeepEqual(again.Players, first.Players) || again.BulkBytes != first.BulkBytes {
					t.Fatalf("link %v, %d bulk flows: run %d differs from the first", r, bulk, k)
				}
			}
		}
	}
}

// Byte conservation: over a window where the link is fully utilized (a
// bulk flow is always hungry), the bytes delivered to all flows must equal
// the trace integral. This pins the processor-sharing accounting — each
// step charged at the membership it ran under, by the trace integral —
// exactly.
func TestByteConservation(t *testing.T) {
	cbr, err := media.NewCBR("cbr", media.DefaultLadder(), media.DefaultChunkDuration, 450)
	if err != nil {
		t.Fatal(err)
	}
	horizon := 10 * time.Minute
	link := 6 * units.Mbps
	// A rate boundary mid-run exercises the integral charging too.
	tr := trace.MustNew([]trace.Segment{
		{Duration: 5 * time.Minute, Rate: link},
		{Duration: time.Hour, Rate: link / 2},
	})
	res, err := Run(Config{
		Trace:     tr,
		BulkFlows: 1,
		Players: []PlayerConfig{{
			Algorithm:  abr.NewBBA2(),
			Stream:     abr.NewStream(cbr, 0),
			WatchLimit: 8 * time.Minute,
		}},
		Horizon: horizon,
	})
	if err != nil {
		t.Fatal(err)
	}
	// CBR: chunk k of the rate record moved the nominal size of its rate.
	var playerBytes int64
	p := res.Players[0]
	for k := 0; k < p.ChunkCount(); k++ {
		rate := units.BitRate(p.ChunkRateKbps(k)) * units.Kbps
		playerBytes += rate.BytesIn(cbr.ChunkDuration)
	}
	delivered := float64(playerBytes + res.BulkBytes)
	capacity := float64(tr.BytesBetween(0, horizon))
	// The bulk flow's in-flight transfer at the horizon is uncounted
	// (≤ 4 MB), so delivered ∈ [capacity − 4 MB − slack, capacity].
	if delivered > capacity*1.01 {
		t.Errorf("delivered %.0f bytes exceeds link capacity %.0f — shares were over-credited", delivered, capacity)
	}
	if delivered < capacity-4.5e6 {
		t.Errorf("delivered %.0f bytes, want ≥ %.0f (capacity minus one in-flight bulk transfer)", delivered, capacity-4.5e6)
	}
}
