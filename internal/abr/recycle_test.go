package abr_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"bba/internal/abr"
	"bba/internal/media"
	"bba/internal/player"
	"bba/internal/telemetry"
	"bba/internal/trace"
	"bba/internal/units"
)

// recycleSession draws one session of the differential from seed: a VBR
// title, R_min promoted half the time (so consecutive sessions can differ
// in ladder), a Markov trace, and a seek a third of the way in, so the
// startup algorithms' re-entry state is exercised too.
func recycleSession(t *testing.T, seed int64) player.Config {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	v, err := media.NewVBR(media.VBRConfig{Ladder: media.DefaultLadder(), NumChunks: 90}, rng)
	if err != nil {
		t.Fatal(err)
	}
	var rmin units.BitRate
	if rng.Intn(2) == 0 {
		rmin = 560 * units.Kbps
	}
	tr := trace.Markov(trace.MarkovConfig{
		Base:      units.BitRate(500+rng.Intn(4000)) * units.Kbps,
		Sigma:     1,
		MeanDwell: 20 * time.Second,
		Duration:  v.Duration(),
	}, rng)
	return player.Config{
		Stream: abr.NewStream(v, rmin),
		Trace:  tr,
		Seeks:  []player.Seek{{AfterPlayed: v.Duration() / 3, ToChunk: 2 * v.NumChunks() / 3}},
	}
}

// arm prepares an instance the way a campaign arm does: the user's history
// seeds a CapacitySeeded algorithm.
func arm(a abr.Algorithm, history units.BitRate) abr.Algorithm {
	if cs, ok := a.(abr.CapacitySeeded); ok {
		cs.SeedCapacity(history)
	}
	return a
}

// played is a session's Result and its events, the per-chunk log.
type played struct {
	res    *player.Result
	events []telemetry.Event
}

func playRecycle(t *testing.T, a abr.Algorithm, cfg player.Config) played {
	t.Helper()
	cfg.Algorithm = a
	capture := &telemetry.Capture{}
	cfg.Observer = capture
	res, err := player.Run(cfg)
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	return played{res, capture.Events}
}

// FuzzRecycledPlaysFresh holds the registry's recycling to the fresh
// instance it stands in for: an instance that has been released once plays
// session A (history seeded), is released and handed out again, and then
// plays session B exactly — every Result field and every event — as an
// instance straight from the constructor does. With sharedTitle the two
// play B's title itself, so the recycled instance reads the plan the fresh
// one filled; without it, the recycled one plays an identical copy of the
// title whose plan nothing has read yet.
func FuzzRecycledPlaysFresh(f *testing.F) {
	for i, name := range abr.Names() {
		f.Add(name, int64(2*i+1), int64(2*i+2), uint16(0), false)
		f.Add(name, int64(2*i+1), int64(2*i+2), uint16(2500), true)
	}
	f.Fuzz(func(t *testing.T, name string, seedA, seedB int64, historyKbps uint16, sharedTitle bool) {
		factory, ok := abr.Lookup(name)
		if !ok {
			t.Skip("not a registered name")
		}
		fresh, recycled := abr.Fresh(name)
		if !recycled {
			t.Skip("not recycled: TestReleaseIgnoresOtherTypes")
		}
		history := units.BitRate(historyKbps) * units.Kbps
		sa, sb := recycleSession(t, seedA), recycleSession(t, seedB)
		want := playRecycle(t, arm(fresh, history), sb)
		if !sharedTitle {
			sb = recycleSession(t, seedB)
		}
		x := factory()
		abr.Release(x)
		a := factory()
		if a != x {
			t.Fatalf("%s: a released instance was not the next one handed out", name)
		}
		playRecycle(t, arm(a, 3*units.Mbps), sa)
		abr.Release(a)
		if b := factory(); b != a {
			t.Fatalf("%s: a released instance was not the next one handed out", name)
		} else if got := playRecycle(t, arm(b, history), sb); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a recycled instance played session %d unlike a fresh one: %s", name, seedB, firstDifference(got, want))
		}
	})
}

// firstDifference names the first event two sessions disagree on, or says
// their Results differ elsewhere.
func firstDifference(got, want played) string {
	for i := range min(len(got.events), len(want.events)) {
		if got.events[i] != want.events[i] {
			return fmt.Sprintf("event %d: recycled %+v, fresh %+v", i, got.events[i], want.events[i])
		}
	}
	if len(got.events) != len(want.events) {
		return fmt.Sprintf("recycled emitted %d events, fresh %d", len(got.events), len(want.events))
	}
	return "same events, other Result fields differ"
}
